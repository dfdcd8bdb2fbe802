// Ring-driven streamed session + block-boundary warm handoff parity
// (DESIGN.md §11), mirroring the incremental-parity tests: a caller that
// retains only a bounded ring of recent samples (the scaler daemon's
// series ring) and drives IncrementalSession::ForecastStreamed /
// SeedStreamed must agree with the full-prefix path the policies use —
// bit-identical on the same stream, and within the documented 1e-9
// scale-relative bound of a fresh batch refit per prefix, including
// across a mid-stream forecaster switch (the warm handoff).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/forecast/ar.h"
#include "src/forecast/fft_forecaster.h"
#include "src/forecast/forecaster.h"
#include "src/forecast/smoothing.h"

namespace femux {
namespace {

// Deterministic xorshift so the series are stable across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<double> RandomSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) {
    v = 10.0 * rng.Uniform();
  }
  return out;
}

// Daemon-style bounded ring: append-only vector compacted amortized O(1),
// exposing the retained tail.
class SeriesRing {
 public:
  explicit SeriesRing(std::size_t capacity) : capacity_(capacity) {}

  void Push(double v) {
    ring_.push_back(v);
    ++observed_;
    if (ring_.size() > 2 * capacity_) {
      ring_.erase(ring_.begin(),
                  ring_.end() - static_cast<std::ptrdiff_t>(capacity_));
    }
  }

  std::span<const double> Window() const {
    const std::size_t len = std::min(ring_.size(), capacity_);
    return std::span<const double>(ring_).last(len);
  }

  std::size_t observed() const { return observed_; }

 private:
  std::size_t capacity_;
  std::vector<double> ring_;
  std::size_t observed_ = 0;
};

constexpr std::size_t kWindow = 120;

// Full-history reference: ForecastStreamed over every full prefix, the
// path the policies take and the incremental-parity tests pin against
// batch refits.
std::vector<double> FullHistoryRolling(const Forecaster& prototype,
                                       std::span<const double> series) {
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  IncrementalSession session;
  std::vector<double> out;
  out.reserve(series.size());
  for (std::size_t t = 1; t <= series.size(); ++t) {
    out.push_back(
        session.ForecastStreamed(*forecaster, series.first(t), t, kWindow));
  }
  return out;
}

// Ring-driven path: only the compacted tail is retained; contiguity is
// carried by the observed count.
std::vector<double> RingRolling(const Forecaster& prototype,
                                std::span<const double> series,
                                std::size_t ring_capacity) {
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  IncrementalSession session;
  SeriesRing ring(ring_capacity);
  std::vector<double> out;
  out.reserve(series.size());
  for (double v : series) {
    ring.Push(v);
    out.push_back(session.ForecastStreamed(*forecaster, ring.Window(),
                                           ring.observed(), kWindow));
  }
  return out;
}

void ExpectBitEqualSeries(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[t]),
              std::bit_cast<std::uint64_t>(b[t]))
        << "t=" << t << " full=" << a[t] << " ring=" << b[t];
  }
}

// The ring must be invisible: as long as the retained tail covers the
// effective window, the streamed call sequence is exactly the full-history
// call sequence, so results are bit-identical (not merely close).
TEST(StreamedSessionTest, RingDrivingIsBitIdenticalToFullHistory) {
  const auto series = RandomSeries(700, 42);
  const struct {
    const char* label;
    std::unique_ptr<Forecaster> prototype;
  } cases[] = {
      {"ar", std::make_unique<ArForecaster>(10, 5)},
      {"exp_smoothing", std::make_unique<ExponentialSmoothingForecaster>()},
      {"holt", std::make_unique<HoltForecaster>()},
      {"fft", std::make_unique<FftForecaster>(10, 5, 256)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    const std::size_t capacity =
        std::max(kWindow, c.prototype->preferred_history());
    ExpectBitEqualSeries(FullHistoryRolling(*c.prototype, series),
                         RingRolling(*c.prototype, series, capacity));
  }
}

// Forecasters without incremental support fall through to the batch path;
// the ring window IS the windowed history there, so this too is exact.
TEST(StreamedSessionTest, BatchFallbackMatchesWindowedForecast) {
  class PlainMean final : public Forecaster {
   public:
    std::string_view name() const override { return "plain_mean"; }
    std::vector<double> Forecast(std::span<const double> history,
                                 std::size_t horizon) override {
      double sum = 0.0;
      for (double v : history) {
        sum += v;
      }
      const double mu =
          history.empty() ? 0.0 : sum / static_cast<double>(history.size());
      return std::vector<double>(horizon, ClampPrediction(mu));
    }
    std::unique_ptr<Forecaster> Clone() const override {
      return std::make_unique<PlainMean>();
    }
  };
  const auto series = RandomSeries(400, 11);
  const PlainMean prototype;
  ExpectBitEqualSeries(FullHistoryRolling(prototype, series),
                       RingRolling(prototype, series, kWindow));
}

// Warm handoff: switch forecasters mid-stream, seeding the newcomer from
// the ring (what FemuxPolicy::CompleteBlock does from the full prefix).
// After the seed, the newcomer must track a reference session that was fed
// the full history from the switch point on — bit-identical, because
// SeedStreamed performs the same BeginWindow a cold re-seed at that prefix
// would.
TEST(StreamedSessionTest, WarmHandoffMatchesColdReseedAtSwitchPoint) {
  const auto all = RandomSeries(600, 7);
  const std::span<const double> series(all);
  constexpr std::size_t kSwitchAt = 371;  // Mid-stream, window already full.

  // Streamed path: forecaster A until the switch, then seed B from the ring
  // and continue streaming with B.
  ArForecaster a(10, 5);
  HoltForecaster b;
  const std::size_t capacity =
      std::max({kWindow, a.preferred_history(), b.preferred_history()});
  IncrementalSession session;
  SeriesRing ring(capacity);
  std::vector<double> streamed;
  int switches = 0;
  for (std::size_t t = 0; t < series.size(); ++t) {
    ring.Push(series[t]);
    if (t + 1 == kSwitchAt) {
      session.SeedStreamed(b, ring.Window(), ring.observed(), kWindow);
      ++switches;
    }
    Forecaster& active = (t + 1 >= kSwitchAt) ? static_cast<Forecaster&>(b)
                                              : static_cast<Forecaster&>(a);
    streamed.push_back(session.ForecastStreamed(active, ring.Window(),
                                                ring.observed(), kWindow));
  }
  ASSERT_GE(switches, 1);

  // Reference: a fresh B driven through ForecastStreamed on full-history
  // prefixes starting at the switch point (a cold re-seed would begin the
  // same way).
  HoltForecaster b_ref;
  IncrementalSession ref_session;
  for (std::size_t t = kSwitchAt; t <= series.size(); ++t) {
    const double ref =
        ref_session.ForecastStreamed(b_ref, series.first(t), t, kWindow);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref),
              std::bit_cast<std::uint64_t>(streamed[t - 1]))
        << "t=" << t << " ref=" << ref << " streamed=" << streamed[t - 1];
  }
}

// Repeated calls at the same observed count (FemuxPolicy forecasts once
// per epoch, but SimulateApp may interrogate the policy again without new
// samples) replay the same prediction instead of corrupting the window.
TEST(StreamedSessionTest, ReplayAtSameCountIsStable) {
  const auto series = RandomSeries(300, 23);
  ArForecaster forecaster(10, 5);
  IncrementalSession session;
  SeriesRing ring(std::max(kWindow, forecaster.preferred_history()));
  for (double v : series) {
    ring.Push(v);
    const double first = session.ForecastStreamed(forecaster, ring.Window(),
                                                  ring.observed(), kWindow);
    const double replay = session.ForecastStreamed(forecaster, ring.Window(),
                                                   ring.observed(), kWindow);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first),
              std::bit_cast<std::uint64_t>(replay));
  }
}

}  // namespace
}  // namespace femux
