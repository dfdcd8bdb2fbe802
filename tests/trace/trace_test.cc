#include "src/trace/trace.h"

#include <gtest/gtest.h>

namespace femux {
namespace {

AppTrace MakeApp() {
  AppTrace app;
  // Move-assign: GCC 12 at -O3 misreads a literal copy-assign as an
  // overlapping memcpy (-Wrestrict).
  app.id = std::string("t");
  app.mean_execution_ms = 6000.0;  // 6 s: concurrency = count * 0.1.
  app.minute_counts = {60.0, 0.0, 600.0};
  return app;
}

TEST(TraceTest, TotalInvocationsSumsMinuteCounts) {
  EXPECT_EQ(MakeApp().TotalInvocations(), 660);
}

TEST(TraceTest, TotalInvocationsFallsBackToDetailWindow) {
  AppTrace app;
  app.invocations.resize(5);
  EXPECT_EQ(app.TotalInvocations(), 5);
}

TEST(TraceTest, InterArrivalSecondsFromMilliseconds) {
  AppTrace app;
  app.invocations = {{0, 1, 0, false}, {1500, 1, 0, false}, {1600, 1, 0, false}};
  const auto iats = app.InterArrivalSeconds();
  ASSERT_EQ(iats.size(), 2u);
  EXPECT_DOUBLE_EQ(iats[0], 1.5);
  EXPECT_DOUBLE_EQ(iats[1], 0.1);
}

TEST(TraceTest, AverageConcurrencyUsesLittlesLaw) {
  const auto conc = AverageConcurrency(MakeApp());
  ASSERT_EQ(conc.size(), 3u);
  EXPECT_DOUBLE_EQ(conc[0], 6.0);    // 60 req/min * 6 s / 60 s.
  EXPECT_DOUBLE_EQ(conc[1], 0.0);
  EXPECT_DOUBLE_EQ(conc[2], 60.0);
}

TEST(TraceTest, RequiredUnitsCeilsByConcurrencyLimit) {
  AppTrace app = MakeApp();
  app.config.container_concurrency = 4;
  const auto units = RequiredUnits(app);
  EXPECT_DOUBLE_EQ(units[0], 2.0);  // ceil(6 / 4).
  EXPECT_DOUBLE_EQ(units[1], 0.0);
  EXPECT_DOUBLE_EQ(units[2], 15.0);
}

TEST(TraceTest, RequiredUnitsRespectsMinScale) {
  AppTrace app = MakeApp();
  app.config.min_scale = 3;
  const auto units = RequiredUnits(app);
  EXPECT_DOUBLE_EQ(units[1], 3.0);
}

TEST(TraceTest, FleetMinuteCountsSumAcrossApps) {
  Dataset dataset;
  dataset.duration_days = 1;
  AppTrace a;
  a.minute_counts.assign(kMinutesPerDay, 1.0);
  AppTrace b;
  b.minute_counts.assign(kMinutesPerDay, 2.0);
  dataset.apps = {a, b};
  const auto total = FleetMinuteCounts(dataset);
  ASSERT_EQ(total.size(), static_cast<std::size_t>(kMinutesPerDay));
  EXPECT_DOUBLE_EQ(total[0], 3.0);
  EXPECT_DOUBLE_EQ(total.back(), 3.0);
}

}  // namespace
}  // namespace femux
