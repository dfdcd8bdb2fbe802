// The benchmark's metric names and units. They mirror the end_to_end and
// per_layer lists of BENCHMARK.json at the repository root; run.py checks
// every result line against that file, so the two cannot drift apart.
#ifndef PERFBENCH_METRIC_NAMES_H_
#define PERFBENCH_METRIC_NAMES_H_

#include <span>

namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
};

// Forecasters of the default FeMux set (MakeFemuxForecasterSet), in model
// index order; the femux workload buckets traced decisions by them.
inline constexpr const char* kFemuxForecasters[] = {
    "ar",   "setar",        "fft",             "exp_smoothing",
    "holt", "markov_chain", "keep_alive_5min", "moving_average_1"};

inline constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"apps_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"rum", "rum"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

inline constexpr MetricName kPerLayer[] = {
    {"trace.make_app_us", "us"},
    {"trace.busy_share", "ratio"},
    {"sim.cpu_util", "ratio"},
    {"sim.backpressure_waits", "count"},
    {"sim.peak_pending_chunks", "count"},
    {"sim.self_share", "ratio"},
    {"sim.scaling_x", "x"},
    {"sim.block_rum_s", "s"},
    {"forecast.plan_s", "s"},
    {"forecast.decision_us.ar", "us"},
    {"forecast.decision_us.setar", "us"},
    {"forecast.decision_us.fft", "us"},
    {"forecast.decision_us.exp_smoothing", "us"},
    {"forecast.decision_us.holt", "us"},
    {"forecast.decision_us.markov_chain", "us"},
    {"forecast.decision_us.keep_alive_5min", "us"},
    {"forecast.decision_us.moving_average_1", "us"},
    {"forecast.decisions.ar", "count"},
    {"forecast.decisions.setar", "count"},
    {"forecast.decisions.fft", "count"},
    {"forecast.decisions.exp_smoothing", "count"},
    {"forecast.decisions.holt", "count"},
    {"forecast.decisions.markov_chain", "count"},
    {"forecast.decisions.keep_alive_5min", "count"},
    {"forecast.decisions.moving_average_1", "count"},
    {"core.train_s", "s"},
    {"core.features_s", "s"},
    {"core.fit_s", "s"},
    {"core.learned_s", "s"},
    {"core.block_switch_us", "us"},
    {"core.switches", "count"},
    {"stats.fft_cache_misses", "count"},
    {"stats.fft_cache_evictions", "count"},
    {"stats.fft_table_mb", "MB"},
    {"serve.push_us_mean", "us"},
    {"serve.push_p99_us", "us"},
    {"serve.tick_ms", "ms"},
    {"serve.ingest_us", "us"},
    {"serve.decide_us", "us"},
    {"serve.checkpoint_ms", "ms"},
    {"serve.decision_us_p50", "us"},
    {"serve.decision_us_p99", "us"},
    {"serve.shard_parallel_eff", "ratio"},
    {"serve.checkpoint_bytes", "bytes"},
    {"serve.drops", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"serve.sustained_decisions_per_s", "1/s"},
    {"bench.trace_overhead_pct", "%"},
};

inline std::span<const MetricName> EndToEndMetrics() { return kEndToEnd; }
inline std::span<const MetricName> PerLayerMetrics() { return kPerLayer; }

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_NAMES_H_
