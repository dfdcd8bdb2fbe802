// Golden-parity tests for the training-pipeline performance layer: the
// plan cache, the workspace-reusing feature extractor, and the restructured
// BuildBlockTable must reproduce the straightforward implementations
// exactly.
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/sim/fleet.h"
#include "src/trace/azure_generator.h"

namespace femux {
namespace {

Dataset TinyDataset() {
  AzureGeneratorOptions options;
  options.num_apps = 8;
  options.duration_days = 2;
  options.seed = 13;
  return GenerateAzureDataset(options);
}

TrainerOptions FastOptions() {
  TrainerOptions options;
  options.clusters = 3;
  options.refit_interval = 30;
  return options;
}

std::vector<int> AllApps(const Dataset& dataset) {
  std::vector<int> indices;
  for (int i = 0; i < static_cast<int>(dataset.apps.size()); ++i) {
    indices.push_back(i);
  }
  return indices;
}

void ExpectTablesEqual(const BlockTable& a, const BlockTable& b) {
  ASSERT_EQ(a.rum.size(), b.rum.size());
  ASSERT_EQ(a.features.size(), b.features.size());
  for (std::size_t i = 0; i < a.rum.size(); ++i) {
    EXPECT_EQ(a.rum[i], b.rum[i]) << "rum rows for app " << i;
    EXPECT_EQ(a.features[i], b.features[i]) << "feature rows for app " << i;
  }
}

TEST(PlanCacheTest, CachesByKeyAndCountsHits) {
  PlanCache cache;
  int computes = 0;
  const auto compute = [&computes] {
    ++computes;
    return std::vector<double>{1.0, 2.0, 3.0};
  };
  const auto first = cache.GetOrCompute(0, "ar", 5, 60.0, compute);
  const auto again = cache.GetOrCompute(0, "ar", 5, 60.0, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.hits(), 1u);

  // Any key component change is a distinct entry.
  cache.GetOrCompute(1, "ar", 5, 60.0, compute);
  cache.GetOrCompute(0, "fft", 5, 60.0, compute);
  cache.GetOrCompute(0, "ar", 10, 60.0, compute);
  cache.GetOrCompute(0, "ar", 5, 10.0, compute);
  EXPECT_EQ(computes, 5);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(TrainerParityTest, PlanCacheDoesNotChangeTheBlockTable) {
  const Dataset dataset = TinyDataset();
  const std::vector<int> apps = AllApps(dataset);

  TrainerOptions uncached = FastOptions();
  const BlockTable reference =
      BuildBlockTable(dataset, apps, Rum::Default(), uncached, nullptr);

  PlanCache cache;
  TrainerOptions cached = FastOptions();
  cached.plan_cache = &cache;
  const BlockTable cold =
      BuildBlockTable(dataset, apps, Rum::Default(), cached, nullptr);
  ExpectTablesEqual(reference, cold);
  EXPECT_GT(cache.size(), 0u);

  // Second pass (e.g. another RUM variant in a sweep) must hit for every
  // (app, forecaster) plan and still produce the identical table.
  const std::size_t entries = cache.size();
  const BlockTable warm =
      BuildBlockTable(dataset, apps, Rum::ColdStartFocused(), cached, nullptr);
  EXPECT_EQ(cache.size(), entries);
  EXPECT_GE(cache.hits(), entries);
  ASSERT_EQ(warm.rum.size(), reference.rum.size());
  // RUM values differ (different objective) but features are RUM-agnostic.
  for (std::size_t a = 0; a < reference.features.size(); ++a) {
    EXPECT_EQ(warm.features[a], reference.features[a]);
  }
}

TEST(TrainerParityTest, WorkspaceExtractionMatchesAllocatingExtraction) {
  const Dataset dataset = TinyDataset();
  const FeatureExtractor extractor(DefaultFeatureSet());
  FeatureExtractor::Workspace workspace;
  for (const AppTrace& app : dataset.apps) {
    const std::vector<double> demand = DemandSeries(app, 60.0);
    const std::size_t blocks = BlockCount(demand.size(), kDefaultBlockMinutes);
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto block =
          BlockSlice(std::span<const double>(demand), b, kDefaultBlockMinutes);
      const std::vector<double> fresh = extractor.Extract(block, 12.0);
      extractor.ExtractInto(block, 12.0, &workspace);
      EXPECT_EQ(fresh, workspace.out);
    }
  }
}

TEST(TrainerParityTest, SimulateForecastsMatchesCachedPlans) {
  const Dataset dataset = TinyDataset();
  const std::vector<double> demand = DemandSeries(dataset.apps[0], 60.0);
  const std::vector<std::string> names = {"ar", "fft", "holt", "markov_chain"};

  const auto direct = SimulateForecasts(names, demand, 30);
  PlanCache cache;
  TrainerOptions options = FastOptions();
  options.plan_cache = &cache;
  options.forecaster_names = names;
  const BlockTable table =
      BuildBlockTable(dataset, {0}, Rum::Default(), options, nullptr);
  (void)table;
  ASSERT_EQ(cache.size(), names.size());
  for (std::size_t f = 0; f < names.size(); ++f) {
    const auto plan = cache.GetOrCompute(0, names[f], 30, 60.0, [] {
      ADD_FAILURE() << "plan should already be cached";
      return std::vector<double>();
    });
    EXPECT_EQ(*plan, direct[f]) << names[f];
  }
}

TEST(TrainerParityTest, TrainingIsDeterministicUnderFemuxThreads1) {
  const Dataset dataset = TinyDataset();
  const std::vector<int> apps = AllApps(dataset);
  setenv("FEMUX_THREADS", "1", 1);
  const BlockTable serial =
      BuildBlockTable(dataset, apps, Rum::Default(), FastOptions(), nullptr);
  unsetenv("FEMUX_THREADS");
  const BlockTable parallel =
      BuildBlockTable(dataset, apps, Rum::Default(), FastOptions(), nullptr);
  ExpectTablesEqual(serial, parallel);
}

TEST(TrainerTimingTest, TrainFemuxRecordsFeatureExtractionSeconds) {
  // Thread-seconds summed over apps; bench reports read this field.
  const Dataset dataset = TinyDataset();
  const TrainResult trained =
      TrainFemux(dataset, AllApps(dataset), Rum::Default(), FastOptions());
  EXPECT_GT(trained.feature_extraction_seconds, 0.0);
  EXPECT_GT(trained.forecast_sim_seconds, 0.0);
}

}  // namespace
}  // namespace femux
