// Event-level (per-invocation) serverless simulator.
//
// The epoch simulator in simulator.h works in the average-concurrency
// representation the paper's FeMux evaluation uses. Prior lifetime-
// management work (Shahrad '20's hybrid histogram, FaasCache) instead
// reasons about individual invocations and container idle times; this
// simulator provides that representation: invocations arrive at millisecond
// resolution, each runs on one container, idle containers expire under a
// pluggable keep-alive policy, and policies may pre-warm a container ahead
// of a predicted arrival.
//
// Used for the idle-time-policy baselines and for sub-minute studies on
// the IBM detail windows.
#ifndef SRC_SIM_EVENT_SIM_H_
#define SRC_SIM_EVENT_SIM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/sim/metrics.h"
#include "src/trace/trace.h"

namespace femux {

// Decision returned by an idle-time policy after a container finishes an
// execution, and optionally a pre-warm window (Shahrad-style): release the
// container now and bring a fresh one up `prewarm_after_ms` after the idle
// period started, keeping it until `expire_after_ms`.
struct IdleDecision {
  double keep_alive_ms = 0.0;    // Keep the container warm this long.
  double prewarm_after_ms = -1;  // < 0: no pre-warming window.
};

// Per-application idle-time policy. Observes arrivals so it can learn
// (e.g. build an idle-time histogram) and is asked for a decision whenever
// a container goes idle.
class IdlePolicy {
 public:
  virtual ~IdlePolicy() = default;
  virtual std::string_view name() const = 0;
  // Called on every arrival with the idle gap since the previous arrival
  // (< 0 for the first arrival).
  virtual void ObserveArrival(double idle_gap_ms) = 0;
  virtual IdleDecision OnContainerIdle() = 0;
  virtual std::unique_ptr<IdlePolicy> Clone() const = 0;
};

// Fixed keep-alive (AWS-style 5/10-minute policies).
class FixedIdlePolicy final : public IdlePolicy {
 public:
  explicit FixedIdlePolicy(double keep_alive_ms);
  std::string_view name() const override { return "fixed_keep_alive"; }
  void ObserveArrival(double /*idle_gap_ms*/) override {}
  IdleDecision OnContainerIdle() override;
  std::unique_ptr<IdlePolicy> Clone() const override;

 private:
  double keep_alive_ms_;
};

// Hybrid histogram policy (Shahrad et al., ATC '20): tracks the idle-time
// distribution per app. When the distribution is concentrated (its
// coefficient of variation is low), releases containers immediately and
// pre-warms shortly before the expected next arrival (the [p5, p99]
// window); otherwise falls back to keeping alive until the p99 idle time.
class HybridHistogramPolicy final : public IdlePolicy {
 public:
  struct Options {
    double bucket_ms = 60.0 * 1000.0;  // 1-minute buckets, 4 h span.
    std::size_t buckets = 240;
    double head_quantile = 0.05;
    double tail_quantile = 0.99;
    // Below this many observations, use the fallback keep-alive.
    std::size_t min_observations = 8;
    double fallback_keep_alive_ms = 10.0 * 60.0 * 1000.0;
    double predictable_cv = 2.0;  // CV threshold for the pre-warm mode.
  };

  HybridHistogramPolicy();  // Default options.
  explicit HybridHistogramPolicy(Options options);
  std::string_view name() const override { return "hybrid_histogram"; }
  void ObserveArrival(double idle_gap_ms) override;
  IdleDecision OnContainerIdle() override;
  std::unique_ptr<IdlePolicy> Clone() const override;

  std::size_t observations() const { return count_; }

  // Idle-gap quantile from the histogram (lower bucket edge). Total: `q` is
  // clamped to [0, 1] and an empty histogram yields 0 (callers must not rely
  // on it for decisions before any observation arrived).
  double Quantile(double q) const;

 private:
  Options options_;
  std::vector<std::int64_t> counts_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

struct EventSimOptions {
  double cold_start_ms = 808.0;  // Paper's provider-agnostic average.
  double memory_gb = 0.15;
};

// Replays one app's invocation stream (sorted by arrival) under `policy`.
SimMetrics SimulateEvents(std::span<const Invocation> invocations,
                          IdlePolicy& policy, const EventSimOptions& options);

// Expands a minute-count series into uniform-within-minute arrivals with
// the app's execution-time model (deterministic given `seed`).
std::vector<Invocation> SynthesizeArrivals(const AppTrace& app, std::uint64_t seed,
                                           int max_minutes = -1);

}  // namespace femux

#endif  // SRC_SIM_EVENT_SIM_H_
