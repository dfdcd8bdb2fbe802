// Streaming fleet-scale macro-benchmark: 10^2 -> 10^6 apps under a fixed
// memory budget (perf trajectory, not a paper figure; DESIGN.md §11/§14).
//
// Gated sections:
//
// 1. Parity @ 32 Azure apps. A verbatim copy of the pre-streaming resident
//    fleet loop (one app at a time on the calling thread) is compared
//    bit-for-bit against SimulateFleet and against SimulateFleetStream
//    (per-app rows recovered through the ordered per_app_sink). Every
//    SimMetrics field of every row and the total must match exactly, and
//    the streamed result must be invariant across chunk sizes {1, 7, 64},
//    thread counts {1, default} and backpressure bounds {auto, 1, 3} — the
//    DESIGN.md §10/§11/§14 determinism contract. Mismatches must be 0.
//
// 2. Sketch-feature parity @ 10^4 Huawei apps. The streaming BlockSketch
//    feature path (FeatureMode::kSketch) is compared against the exact
//    resident-block oracle for the same analogue statistics. The moment
//    features (stationarity, linearity, density, exec time) differ only by
//    floating-point reassociation (tolerance 1e-6 relative); the harmonics
//    feature rides the P^2 p90 estimate, whose error is bounded by the
//    property suite in tests/stats/sketch_test.cc (tolerance 0.1 absolute
//    on the log10 scale here). Gate: 0 out-of-tolerance features.
//
// 3. Thread sweep at a fixed fleet. apps/sec for 1..N threads plus a
//    speedup gate (>= 2x apps/s at 4 threads vs 1). Below 4 cores the gate
//    is skipped with a warning and the skip + core count are recorded in
//    the JSON (speedup_gate.{skipped, cores, reason}) — same shape as
//    bench_fleet_parallel.
//
// 4. Zero-allocation hot loop. Global operator new is replaced by a
//    counting hook (bench/alloc_hook.{h,cc}); two sweeps differing only in
//    epochs-per-app are measured after an arena-warming run, so per-app
//    and per-chunk allocations cancel and any allocation delta is per-epoch
//    heap traffic. Gate: 0 per-epoch allocations in steady state.
//
// 5. Huawei-preset scale sweep to 10^6 apps. SimulateFleetStream runs a
//    cheap moving-average policy over lazily generated per-second fleets,
//    recording wall time, apps/sec, epochs/sec and the RSS high-water mark
//    per point. Gate: peak RSS growth across the sweep (a 10^4x
//    fleet-size increase) stays under the configured budget plus fixed
//    slack — flat memory in fleet size.
//
// Usage: bench_fleet_scale [--smoke] [--scale-smoke] [--json=PATH]
//   --smoke        tiny sizes for CI; all sections.
//   --scale-smoke  verify.sh mode: alloc gate + 10^5-app RSS gate only.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/common.h"
#include "src/core/features.h"
#include "src/forecast/registry.h"
#include "src/sim/fleet.h"
#include "src/sim/fleet_stream.h"
#include "src/sim/policy.h"
#include "src/sim/thread_pool.h"
#include "src/stats/sketch.h"
#include "src/trace/azure_generator.h"
#include "src/trace/huawei_generator.h"
#include "src/trace/stream.h"

namespace femux {
namespace resident_reference {

// ---- Pre-streaming resident fleet loop, kept verbatim so the parity gate
// ---- measures the streaming pipeline against the real baseline: the whole
// ---- dataset materialized, every app simulated in order on the caller.
FleetResult SimulateFleetUniform(const Dataset& dataset, const ScalingPolicy& prototype,
                                 SimOptions options) {
  FleetResult result;
  result.per_app.resize(dataset.apps.size());
  for (std::size_t i = 0; i < dataset.apps.size(); ++i) {
    const AppTrace& app = dataset.apps[i];
    SimOptions app_options = options;
    app_options.min_scale = 0;
    app_options.memory_gb_per_unit =
        app.consumed_memory_mb > 0.0 ? app.consumed_memory_mb / 1024.0
                                     : options.memory_gb_per_unit;
    const std::vector<double> demand = DemandSeries(app, app_options.epoch_seconds);
    const std::vector<double> arrivals = ArrivalSeries(app, app_options.epoch_seconds);
    const std::unique_ptr<ScalingPolicy> policy = prototype.Clone();
    result.per_app[i] = SimulateApp(demand, arrivals, *policy, app_options);
  }
  for (const SimMetrics& m : result.per_app) {
    result.total += m;
  }
  return result;
}

}  // namespace resident_reference

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Args {
  bool smoke = false;
  bool scale_smoke = false;
  std::string json_path;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--scale-smoke") {
      args.scale_smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    }
  }
  return args;
}

constexpr std::size_t kMetricFields = 8;

std::array<double, kMetricFields> Fields(const SimMetrics& m) {
  return {m.invocations,        m.cold_starts,          m.cold_invocations,
          m.cold_start_seconds, m.wasted_gb_seconds,    m.allocated_gb_seconds,
          m.execution_seconds,  m.service_seconds};
}

// Bit-exact comparison of every field of every row (and the total).
std::size_t CountRowMismatches(const FleetResult& a, const FleetResult& b) {
  if (a.per_app.size() != b.per_app.size()) {
    return a.per_app.size() + b.per_app.size();
  }
  std::size_t mismatches = 0;
  const auto compare = [&mismatches](const SimMetrics& x, const SimMetrics& y) {
    const auto fx = Fields(x);
    const auto fy = Fields(y);
    for (std::size_t f = 0; f < kMetricFields; ++f) {
      if (std::bit_cast<std::uint64_t>(fx[f]) != std::bit_cast<std::uint64_t>(fy[f])) {
        ++mismatches;
      }
    }
  };
  compare(a.total, b.total);
  for (std::size_t i = 0; i < a.per_app.size(); ++i) {
    compare(a.per_app[i], b.per_app[i]);
  }
  return mismatches;
}

// Runs the streaming simulator and reassembles a FleetResult from the
// ordered per-app sink, so the comparison covers every row, not just the
// fold total.
FleetResult StreamAsFleetResult(const TraceSource& source,
                                const ScalingPolicy& prototype,
                                FleetStreamOptions options) {
  FleetResult out;
  out.per_app.resize(source.app_count());
  options.per_app_sink = [&out](std::size_t index, const SimMetrics& row) {
    out.per_app[index] = row;
  };
  const FleetStreamResult streamed =
      SimulateFleetStreamUniform(source, prototype, options);
  out.total = streamed.total;
  return out;
}

struct SweepPoint {
  std::size_t apps = 0;
  double seconds = 0.0;
  std::uint64_t epochs = 0;
  std::size_t chunks = 0;
  std::size_t peak_pending_chunks = 0;
  std::size_t backpressure_waits = 0;
  std::size_t current_rss_bytes = 0;
  std::size_t peak_rss_bytes = 0;
};

struct ThreadPoint {
  std::size_t threads = 0;
  double seconds = 0.0;
  double apps_per_sec = 0.0;
};

struct AllocPoint {
  std::uint64_t allocations = 0;
  std::uint64_t epochs = 0;
};

}  // namespace
}  // namespace femux

int main(int argc, char** argv) {
  using namespace femux;
  const Args args = ParseArgs(argc, argv);

  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t configured = ConfiguredThreadCount();

  // Shared sweep configuration: Huawei preset, per-second samples, 10 s
  // epochs, cheap reactive policy — the fleet pipeline is the measurement,
  // not the forecaster.
  HuaweiGeneratorOptions huawei;
  huawei.duration_minutes = args.smoke ? 10 : 20;
  huawei.seed = 2026;
  SimOptions sweep_sim;
  sweep_sim.epoch_seconds = 10.0;
  const ForecasterPolicy sweep_policy(MakeForecasterByName("moving_average_1"));

  // --- Section 1: bit-exact parity at the pre-PR fleet size.
  std::size_t resident_mismatches = 0;
  std::size_t stream_mismatches = 0;
  std::size_t variant_mismatches = 0;
  std::size_t parity_apps = 0;
  bool parity_ok = true;
  if (!args.scale_smoke) {
    AzureGeneratorOptions gen;
    gen.num_apps = 32;
    gen.duration_days = args.smoke ? 1 : 3;
    gen.seed = 11;
    const Dataset dataset = GenerateAzureDataset(gen);
    const DatasetTraceSource dataset_source(dataset);
    const AzureTraceSource azure_source(gen);
    parity_apps = dataset.apps.size();

    std::printf("fleet scale bench: parity @ %zu Azure apps x %d days, "
                "%zu hardware threads, %zu configured\n",
                dataset.apps.size(), gen.duration_days, hardware, configured);

    const std::vector<std::string> parity_policies = {"moving_average_1",
                                                      "exp_smoothing"};
    const std::array<std::size_t, 3> parity_chunks = {1, 7, 64};
    const std::array<std::size_t, 2> parity_threads = {1, 0};
    const std::array<std::size_t, 3> parity_bounds = {0, 1, 3};  // 0 = auto.
    for (const std::string& name : parity_policies) {
      const ForecasterPolicy prototype(MakeForecasterByName(name));
      const FleetResult reference =
          resident_reference::SimulateFleetUniform(dataset, prototype, SimOptions{});
      const FleetResult resident =
          SimulateFleetUniform(dataset, prototype, SimOptions{});
      resident_mismatches += CountRowMismatches(reference, resident);
      for (const std::size_t chunk : parity_chunks) {
        for (const std::size_t threads : parity_threads) {
          for (const std::size_t bound : parity_bounds) {
            FleetStreamOptions options;
            options.chunk_apps = chunk;
            options.threads = threads;
            options.max_pending_chunks = bound;
            const FleetResult streamed =
                StreamAsFleetResult(dataset_source, prototype, options);
            const std::size_t mismatches = CountRowMismatches(reference, streamed);
            stream_mismatches += mismatches;
            if (chunk != parity_chunks.front() ||
                threads != parity_threads.front() ||
                bound != parity_bounds.front()) {
              variant_mismatches += mismatches;
            }
          }
        }
      }
      // The lazily generated source must agree with the materialized dataset
      // end to end, not just trace by trace.
      FleetStreamOptions lazy;
      lazy.chunk_apps = 8;
      stream_mismatches += CountRowMismatches(
          reference, StreamAsFleetResult(azure_source, prototype, lazy));
      std::printf("  %-18s resident %zu  stream %zu mismatched fields\n",
                  name.c_str(), resident_mismatches, stream_mismatches);
    }
    parity_ok = resident_mismatches + stream_mismatches + variant_mismatches == 0;
    std::printf("parity: %s (%zu mismatched fields across %zu policies x "
                "%zu chunk sizes x %zu thread widths x %zu pending bounds)\n",
                parity_ok ? "PASS" : "FAIL",
                resident_mismatches + stream_mismatches + variant_mismatches,
                parity_policies.size(), parity_chunks.size(),
                parity_threads.size(), parity_bounds.size());
  }

  // --- Section 2: sketch-feature parity at fleet scale.
  //
  // Tolerances (documented error bound): the moment features differ from
  // the resident oracle only by floating-point reassociation (1e-6
  // relative). The harmonics feature rides the P^2 p90 estimate; on short
  // zero-inflated serverless blocks individual apps can land a marker on a
  // distribution discontinuity, so the gate bounds the error DISTRIBUTION:
  // p99 of |sketch - exact| <= 0.1 on the log10 scale and worst case
  // <= 0.75 (matching the property bounds in tests/stats/sketch_test.cc).
  const double kMomentTolerance = 1e-6;
  const double kHarmonicsP99Tolerance = 0.1;
  const double kHarmonicsMaxTolerance = 0.75;
  std::size_t sketch_apps = 0;
  std::size_t sketch_failures = 0;
  double sketch_max_moment_error = 0.0;
  double sketch_max_harmonics_error = 0.0;
  double sketch_p99_harmonics_error = 0.0;
  if (!args.scale_smoke) {
    sketch_apps = args.smoke ? 200 : 10000;
    HuaweiGeneratorOptions sketch_gen = huawei;
    sketch_gen.num_apps = static_cast<int>(sketch_apps);
    sketch_gen.seed = 777;
    const HuaweiTraceSource sketch_source(sketch_gen);
    FeatureExtractor extractor(DefaultFeatureSet(), FeatureMode::kSketch);
    FeatureExtractor::Workspace sketch_ws;
    FeatureExtractor::Workspace exact_ws;
    AppTrace app;
    SeriesWorkspace series_ws;
    std::vector<double> demand;
    BlockSketch sketch;
    std::vector<double> harmonics_errors;
    harmonics_errors.reserve(sketch_apps);
    const std::vector<Feature>& feature_set = extractor.features();
    for (std::size_t i = 0; i < sketch_apps; ++i) {
      sketch_source.MakeAppInto(i, &app);
      DemandSeriesInto(app, sweep_sim.epoch_seconds, &series_ws, &demand);
      sketch.Reset();
      for (const double x : demand) {
        sketch.Add(x);
      }
      extractor.ExtractSketchInto(sketch, 0.0, &sketch_ws);
      extractor.ExtractSketchReferenceInto(demand, 0.0, &exact_ws);
      for (std::size_t f = 0; f < feature_set.size(); ++f) {
        const double got = sketch_ws.out[f];
        const double want = exact_ws.out[f];
        const double abs_error = std::fabs(got - want);
        if (feature_set[f] == Feature::kHarmonics) {
          harmonics_errors.push_back(abs_error);
        } else {
          const double rel_error = abs_error / std::max(1.0, std::fabs(want));
          sketch_max_moment_error = std::max(sketch_max_moment_error, rel_error);
          if (rel_error > kMomentTolerance) {
            ++sketch_failures;
          }
        }
      }
    }
    if (!harmonics_errors.empty()) {
      std::sort(harmonics_errors.begin(), harmonics_errors.end());
      sketch_max_harmonics_error = harmonics_errors.back();
      sketch_p99_harmonics_error =
          harmonics_errors[static_cast<std::size_t>(
              0.99 * static_cast<double>(harmonics_errors.size() - 1))];
      if (sketch_p99_harmonics_error > kHarmonicsP99Tolerance ||
          sketch_max_harmonics_error > kHarmonicsMaxTolerance) {
        ++sketch_failures;
      }
    }
    std::printf("sketch parity: %s (%zu apps, %zu failures, max moment rel "
                "err %.2e, harmonics abs err p99 %.4f / max %.4f)\n",
                sketch_failures == 0 ? "PASS" : "FAIL", sketch_apps,
                sketch_failures, sketch_max_moment_error,
                sketch_p99_harmonics_error, sketch_max_harmonics_error);
  }
  const bool sketch_ok = sketch_failures == 0;

  // --- Section 3: thread sweep + speedup gate (same shape as
  // --- bench_fleet_parallel: skipped, cores, reason recorded uniformly).
  const bool multicore = configured >= 4 && hardware >= 4;
  const bool speedup_gate_skipped = !multicore;
  const std::string skip_reason =
      speedup_gate_skipped
          ? "machine has " + std::to_string(hardware) + " hardware threads / " +
                std::to_string(configured) +
                " configured (< 4): parallel speedup is unmeasurable here"
          : "";
  const double speedup_target = 2.0;
  std::vector<ThreadPoint> thread_sweep;
  double speedup_at_4 = 0.0;
  bool speedup_ok = true;
  if (!args.scale_smoke) {
    if (speedup_gate_skipped) {
      std::fprintf(stderr, "warning: speedup gate SKIPPED: %s\n",
                   skip_reason.c_str());
    }
    HuaweiGeneratorOptions sweep_gen = huawei;
    sweep_gen.num_apps = args.smoke ? 500 : 20000;
    sweep_gen.seed = 4242;
    const HuaweiTraceSource source(sweep_gen);
    std::vector<std::size_t> widths = {1};
    for (std::size_t t = 2; t < configured; t *= 2) {
      widths.push_back(t);
    }
    if (configured > 1) {
      widths.push_back(configured);
    }
    std::printf("thread sweep: %d apps, widths 1..%zu\n", sweep_gen.num_apps,
                widths.back());
    for (const std::size_t threads : widths) {
      FleetStreamOptions options;
      options.sim = sweep_sim;
      options.chunk_apps = 64;
      options.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const FleetStreamResult result =
          SimulateFleetStreamUniform(source, sweep_policy, options);
      ThreadPoint point;
      point.threads = threads;
      point.seconds = Seconds(start);
      point.apps_per_sec =
          point.seconds > 0.0 ? result.apps / point.seconds : 0.0;
      thread_sweep.push_back(point);
      std::printf("  %2zu threads  %8.3f s  %9.0f apps/s\n", point.threads,
                  point.seconds, point.apps_per_sec);
    }
    if (!speedup_gate_skipped) {
      double at_1 = 0.0;
      double at_4 = 0.0;
      for (const ThreadPoint& p : thread_sweep) {
        if (p.threads == 1) at_1 = p.apps_per_sec;
        if (p.threads == 4) at_4 = p.apps_per_sec;
      }
      speedup_at_4 = at_1 > 0.0 ? at_4 / at_1 : 0.0;
      speedup_ok = speedup_at_4 >= speedup_target;
      std::printf("speedup gate: %.2fx at 4 threads (target %.1fx) %s\n",
                  speedup_at_4, speedup_target, speedup_ok ? "PASS" : "FAIL");
    }
  }

  // --- Section 4: zero-allocation hot loop (see header comment and
  // --- bench/alloc_hook.h for the delta protocol).
  const std::size_t alloc_apps = args.smoke ? 500 : 4000;
  const int alloc_short_minutes = args.smoke ? 6 : 10;
  const int alloc_long_minutes = 2 * alloc_short_minutes;
  const auto measure_alloc = [&](int minutes) {
    HuaweiGeneratorOptions gen = huawei;
    gen.num_apps = static_cast<int>(alloc_apps);
    gen.duration_minutes = minutes;
    gen.seed = 99;
    const HuaweiTraceSource source(gen);
    FleetStreamOptions options;
    options.sim = sweep_sim;
    options.chunk_apps = 64;
    options.threads = 1;  // Single participant: one arena, deterministic count.
    const std::uint64_t before = AllocHookCount();
    const FleetStreamResult result =
        SimulateFleetStreamUniform(source, sweep_policy, options);
    AllocPoint point;
    point.allocations = AllocHookCount() - before;
    point.epochs = result.epochs;
    return point;
  };
  measure_alloc(alloc_long_minutes);  // Warm the thread-local arenas.
  const AllocPoint alloc_short = measure_alloc(alloc_short_minutes);
  const AllocPoint alloc_long = measure_alloc(alloc_long_minutes);
  const std::uint64_t alloc_delta =
      alloc_long.allocations > alloc_short.allocations
          ? alloc_long.allocations - alloc_short.allocations
          : 0;
  const std::uint64_t epoch_delta = alloc_long.epochs - alloc_short.epochs;
  const double per_epoch_allocs =
      epoch_delta > 0 ? static_cast<double>(alloc_delta) /
                            static_cast<double>(epoch_delta)
                      : 0.0;
  const bool alloc_ok = alloc_delta == 0;
  std::printf("alloc gate: %s (%zu apps, %llu allocs @ %llu epochs vs "
              "%llu allocs @ %llu epochs -> %llu extra, %.6f per epoch)\n",
              alloc_ok ? "PASS" : "FAIL", alloc_apps,
              static_cast<unsigned long long>(alloc_short.allocations),
              static_cast<unsigned long long>(alloc_short.epochs),
              static_cast<unsigned long long>(alloc_long.allocations),
              static_cast<unsigned long long>(alloc_long.epochs),
              static_cast<unsigned long long>(alloc_delta), per_epoch_allocs);

  // --- Section 5: scale sweep under a fixed memory ceiling.
  const std::size_t memory_budget = args.smoke ? (256u << 10) : (32u << 20);
  const std::size_t rss_slack = 128u << 20;
  const std::vector<std::size_t> sweep_sizes =
      args.smoke ? std::vector<std::size_t>{50, 200}
      : args.scale_smoke
          ? std::vector<std::size_t>{1000, 100000}
          : std::vector<std::size_t>{100, 1000, 10000, 100000, 1000000};

  std::printf("scale sweep: huawei preset, %d min @ %d s/sample, epoch %.0f s, "
              "rss ceiling %.2f MB + %zu MB slack\n",
              huawei.duration_minutes, huawei.seconds_per_sample,
              sweep_sim.epoch_seconds, memory_budget / (1024.0 * 1024.0),
              rss_slack >> 20);
  std::vector<SweepPoint> sweep;
  for (const std::size_t apps : sweep_sizes) {
    HuaweiGeneratorOptions gen = huawei;
    gen.num_apps = static_cast<int>(apps);
    const HuaweiTraceSource source(gen);
    FleetStreamOptions options;
    options.sim = sweep_sim;
    options.chunk_apps = 64;
    const auto start = std::chrono::steady_clock::now();
    const FleetStreamResult result =
        SimulateFleetStreamUniform(source, sweep_policy, options);
    SweepPoint point;
    point.apps = result.apps;
    point.seconds = Seconds(start);
    point.epochs = result.epochs;
    point.chunks = result.chunks;
    point.peak_pending_chunks = result.peak_pending_chunks;
    point.backpressure_waits = result.backpressure_waits;
    point.current_rss_bytes = CurrentRssBytes();
    point.peak_rss_bytes = PeakRssBytes();
    sweep.push_back(point);
    std::printf("  %7zu apps  %8.3f s  %9.0f apps/s  %11.0f epochs/s  "
                "peak rss %6.1f MB  pending %zu  waits %zu\n",
                point.apps, point.seconds,
                point.seconds > 0.0 ? point.apps / point.seconds : 0.0,
                point.seconds > 0.0 ? point.epochs / point.seconds : 0.0,
                point.peak_rss_bytes / (1024.0 * 1024.0),
                point.peak_pending_chunks, point.backpressure_waits);
  }

  // Flat-memory gate: RSS high-water growth across the whole sweep must
  // stay within the fixed ceiling (allocator retention, thread stacks) —
  // i.e. independent of fleet size.
  const std::size_t rss_first = sweep.front().peak_rss_bytes;
  const std::size_t rss_last = sweep.back().peak_rss_bytes;
  const std::size_t rss_growth = rss_last > rss_first ? rss_last - rss_first : 0;
  const bool rss_known = rss_first != 0 && rss_last != 0;
  const bool flat_ok = !rss_known || rss_growth <= memory_budget + rss_slack;
  std::printf("memory: peak rss %.1f MB -> %.1f MB (growth %.1f MB, "
              "ceiling %.2f MB + %zu MB slack) %s%s\n",
              rss_first / (1024.0 * 1024.0), rss_last / (1024.0 * 1024.0),
              rss_growth / (1024.0 * 1024.0), memory_budget / (1024.0 * 1024.0),
              rss_slack >> 20, flat_ok ? "PASS" : "FAIL",
              rss_known ? "" : " (rss unavailable)");

  const bool all_ok = parity_ok && sketch_ok && speedup_ok && alloc_ok && flat_ok;

  bool json_ok = true;
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\n"
        << "  \"bench\": \"fleet_scale\",\n"
        << "  \"simd\": " << SimdInfoJson() << ",\n"
        << "  \"config\": {\"smoke\": " << (args.smoke ? "true" : "false")
        << ", \"scale_smoke\": " << (args.scale_smoke ? "true" : "false")
        << ", \"hardware_concurrency\": " << hardware
        << ", \"configured_threads\": " << configured
        << ", \"parity_apps\": " << parity_apps
        << ", \"huawei_duration_minutes\": " << huawei.duration_minutes
        << ", \"huawei_seconds_per_sample\": " << huawei.seconds_per_sample
        << ", \"epoch_seconds\": " << sweep_sim.epoch_seconds
        << ", \"chunk_apps\": 64"
        << ", \"memory_budget_bytes\": " << memory_budget << "},\n"
        << "  \"parity\": {\"resident_mismatched_fields\": " << resident_mismatches
        << ", \"stream_mismatched_fields\": " << stream_mismatches
        << ", \"variant_mismatched_fields\": " << variant_mismatches
        << ", \"mismatched_fields\": "
        << resident_mismatches + stream_mismatches + variant_mismatches
        << ", \"ok\": " << (parity_ok ? "true" : "false") << "},\n"
        << "  \"sketch_parity\": {\"apps\": " << sketch_apps
        << ", \"failures\": " << sketch_failures
        << ", \"moment_tolerance_rel\": " << kMomentTolerance
        << ", \"harmonics_p99_tolerance_abs\": " << kHarmonicsP99Tolerance
        << ", \"harmonics_max_tolerance_abs\": " << kHarmonicsMaxTolerance
        << ", \"max_moment_error_rel\": " << sketch_max_moment_error
        << ", \"p99_harmonics_error_abs\": " << sketch_p99_harmonics_error
        << ", \"max_harmonics_error_abs\": " << sketch_max_harmonics_error
        << ", \"ok\": " << (sketch_ok ? "true" : "false") << "},\n"
        << "  \"thread_sweep\": [\n";
    for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
      const ThreadPoint& p = thread_sweep[i];
      out << "    {\"threads\": " << p.threads << ", \"seconds\": " << p.seconds
          << ", \"apps_per_sec\": " << p.apps_per_sec << "}"
          << (i + 1 < thread_sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"speedup_gate\": {\"skipped\": "
        << (speedup_gate_skipped ? "true" : "false")
        << ", \"cores\": " << hardware
        << ", \"configured_threads\": " << configured
        << ", \"speedup_at_4\": " << speedup_at_4
        << ", \"target\": " << speedup_target
        << ", \"ok\": " << (speedup_ok ? "true" : "false")
        << ", \"reason\": \"" << skip_reason << "\"},\n"
        << "  \"alloc_gate\": {\"apps\": " << alloc_apps
        << ", \"short_allocations\": " << alloc_short.allocations
        << ", \"short_epochs\": " << alloc_short.epochs
        << ", \"long_allocations\": " << alloc_long.allocations
        << ", \"long_epochs\": " << alloc_long.epochs
        << ", \"delta_allocations\": " << alloc_delta
        << ", \"per_epoch_allocations\": " << per_epoch_allocs
        << ", \"ok\": " << (alloc_ok ? "true" : "false") << "},\n"
        << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      out << "    {\"apps\": " << p.apps << ", \"seconds\": " << p.seconds
          << ", \"apps_per_sec\": " << (p.seconds > 0.0 ? p.apps / p.seconds : 0.0)
          << ", \"epochs\": " << p.epochs
          << ", \"epochs_per_sec\": "
          << (p.seconds > 0.0 ? p.epochs / p.seconds : 0.0)
          << ", \"chunks\": " << p.chunks
          << ", \"peak_pending_chunks\": " << p.peak_pending_chunks
          << ", \"backpressure_waits\": " << p.backpressure_waits
          << ", \"current_rss_bytes\": " << p.current_rss_bytes
          << ", \"peak_rss_bytes\": " << p.peak_rss_bytes << "}"
          << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"memory\": {\"peak_rss_first_bytes\": " << rss_first
        << ", \"peak_rss_last_bytes\": " << rss_last
        << ", \"growth_bytes\": " << rss_growth
        << ", \"budget_bytes\": " << memory_budget
        << ", \"slack_bytes\": " << rss_slack
        << ", \"rss_known\": " << (rss_known ? "true" : "false")
        << ", \"flat_ok\": " << (flat_ok ? "true" : "false") << "},\n"
        << "  \"ok\": " << (all_ok ? "true" : "false") << "\n}\n";
    out.flush();
    json_ok = out.good();
    if (json_ok) {
      std::printf("wrote %s\n", args.json_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", args.json_path.c_str());
    }
  }

  return all_ok && json_ok ? 0 : 1;
}
