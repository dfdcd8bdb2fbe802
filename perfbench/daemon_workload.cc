// daemon_tick: an open loop against one ScalerDaemon (holt, 8 shards,
// faults off, periodic checkpoints). One long-lived generator thread pushes
// one sample per app per tick on a fixed schedule, and the main thread
// fires ticks on theirs; latencies run from each tick's and each push's due
// time, so a stall charges every tick and push it delays. The serve layer
// (queues, shard locks, the decision ladder, checkpoint writes beside
// decision reads) does the work; trace, sim and core do nothing.
//
// App start ticks are staggered across one history window and every app is
// warmed past its window before timing; otherwise the forecasters'
// periodic rebuilds line up on the same ticks and the tail becomes a coin
// flip.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/forecast/registry.h"
#include "src/serve/scaler_daemon.h"
#include "src/sim/fleet.h"
#include "src/sim/simulator.h"
#include "src/sim/thread_pool.h"
#include "src/stats/rng.h"
#include "src/trace/stream.h"

namespace perfbench {
namespace {

constexpr std::size_t kApps = 256;
constexpr std::size_t kShards = 8;
constexpr double kTickMs = 50.0;              // Stands in for the 2 s tick.
// Ticks between checkpoints. A 20 s run of 400 ticks holds 25 checkpoint
// ticks, so the tail (the 11th-slowest tick) is a typical checkpoint tick:
// host stalls would have to slow more than ten ticks past it to move it.
constexpr std::size_t kCheckpointEvery = 16;
constexpr std::size_t kWindow = femux::kDefaultHistoryMinutes;
constexpr std::size_t kWarmTicks = 2 * kWindow;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kSampledApps = kApps;  // Decisions checked and scored.
constexpr std::size_t kPushGroups = 32;    // Push bursts per tick interval.
// Pushes for a tick are due from kPushStart to kPushStart + kPushSpread of
// the interval before it, so the previous tick has drained its own first.
constexpr double kPushStart = 0.1;
constexpr double kPushSpread = 0.8;
// Offered tick intervals of the sustained-rate ladder (traced run).
constexpr double kLadderMs[] = {40.0, 20.0, 10.0, 5.0};

using Ms = std::chrono::duration<double, std::milli>;

Clock::duration FromMs(double ms) {
  return std::chrono::duration_cast<Clock::duration>(Ms(ms));
}

// Per-app inputs: a window of an Azure-like minute series and the tick the
// app starts pushing on (staggered across one history window). The app
// population is fixed and the seed draws where in its series each app's
// window starts and each app's start tick: holt's cost per decision varies
// several-fold between apps, so a seed-drawn population made set-up time a
// property of the seed.
struct Inputs {
  std::vector<std::string> ids;
  std::vector<std::vector<double>> demand;
  std::vector<std::vector<double>> arrivals;
  std::vector<double> memory_gb;
  std::vector<std::size_t> start_tick;  // First tick with a push is start + 1.
};

constexpr std::uint64_t kPopulationSeed = 7;

Inputs MakeInputs(std::uint64_t seed, std::size_t ticks) {
  const std::size_t day = femux::kMinutesPerDay;
  femux::AzureGeneratorOptions generator;
  generator.num_apps = static_cast<int>(kApps);
  generator.duration_days = static_cast<int>((ticks + 2 * day - 1) / day);
  generator.seed = kPopulationSeed;
  const femux::AzureTraceSource source(generator);
  Inputs inputs;
  femux::Rng rng(seed);
  for (std::size_t i = 0; i < kApps; ++i) {
    const femux::AppTrace app = source.MakeApp(i);
    const std::vector<double> demand = femux::DemandSeries(app, 60.0);
    const std::vector<double> arrivals = femux::ArrivalSeries(app, 60.0);
    const auto offset = static_cast<std::ptrdiff_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(day) - 1));
    const auto length = static_cast<std::ptrdiff_t>(ticks);
    inputs.ids.push_back("app-" + std::to_string(i));
    inputs.demand.emplace_back(demand.begin() + offset, demand.begin() + offset + length);
    inputs.arrivals.emplace_back(arrivals.begin() + offset,
                                 arrivals.begin() + offset + length);
    inputs.memory_gb.push_back(app.consumed_memory_mb > 0.0 ? app.consumed_memory_mb / 1024.0
                                                            : 0.15);
    inputs.start_tick.push_back(
        static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(kWindow) - 1)));
  }
  return inputs;
}

// Sample index app `i` pushes for tick `t` (1-based), or -1 before it starts.
long SampleIndex(const Inputs& inputs, std::size_t i, std::size_t t) {
  return t > inputs.start_tick[i] ? static_cast<long>(t - inputs.start_tick[i] - 1) : -1;
}

femux::ScalerDaemonOptions DaemonOptions(const std::string& checkpoint_path) {
  femux::ScalerDaemonOptions options;
  options.shards = kShards;
  options.forecaster = "holt";
  options.checkpoint_every_ticks = kCheckpointEvery;
  options.checkpoint_path = checkpoint_path;
  // A decision is due by its tick. The default 5 ms budget belongs to the
  // 2 s tick; on a shared virtual machine a vCPU can pause for tens of
  // milliseconds in the middle of a 15 us decision, which a tight
  // wall-clock deadline turns into a miss that no code change can remove.
  // Slow decisions still show in serve.decision_us_p99 and the tick
  // latencies.
  options.decision_deadline_ms = kTickMs;
  return options;
}

// Target and ingested sample count of the sampled apps after every tick.
// Checking a target against the count the daemon had actually ingested
// keeps the check exact even when a late tick drains a sample early.
struct DecisionLog {
  std::vector<std::size_t> apps;
  std::vector<std::vector<double>> targets;          // [sampled app][tick - 1]
  std::vector<std::vector<std::uint64_t>> observed;  // [sampled app][tick - 1]
  std::size_t check_through = 0;  // Last tick whose decisions are checked.

  void Record(const femux::ScalerDaemon& daemon, const Inputs& inputs, std::size_t tick) {
    for (std::size_t j = 0; j < apps.size(); ++j) {
      targets[j].resize(tick, 0.0);
      observed[j].resize(tick, 0);
      const std::string& id = inputs.ids[apps[j]];
      targets[j][tick - 1] = daemon.LatestTarget(id);
      observed[j][tick - 1] = daemon.GetAppHealth(id).observed;
    }
  }
};

// Pushes every app's sample for ticks [first, last] as fast as possible and
// ticks after each; the set-up warm-up.
void RunUnpaced(femux::ScalerDaemon& daemon, const Inputs& inputs, std::size_t first,
                std::size_t last, DecisionLog* log, Report* report) {
  for (std::size_t t = first; t <= last; ++t) {
    for (std::size_t i = 0; i < kApps; ++i) {
      const long k = SampleIndex(inputs, i, t);
      if (k >= 0 && !daemon.Push({inputs.ids[i], static_cast<std::uint64_t>(k + 1),
                                   inputs.demand[i][static_cast<std::size_t>(k)]})) {
        report->Fail("warm-up push dropped");
      }
    }
    daemon.TickOnce();
    if (log != nullptr) {
      log->Record(daemon, inputs, t);
    }
  }
}

struct Phase {
  std::vector<double> tick_latency_ms;  // Due instant to TickOnce return.
  std::vector<double> tick_wall_ms;     // TickOnce wall.
  std::vector<double> push_latency_us;  // Due instant to Push return.
  std::vector<double> push_call_us;     // Push call alone.
  std::vector<double> group_lag_ms;     // Generator lateness per burst.
  std::size_t pushes = 0;
  std::size_t dropped = 0;
  std::size_t late_ticks = 0;  // Ticks that fired before all their pushes.
  double final_lag_ms = 0.0;   // Lateness of the last tick's start.
};

// Open loop over ticks [first, last] at `interval_ms`: the generator thread
// pushes tick t's samples in kPushGroups bursts spread over the interval
// before t's due instant; the caller's thread fires ticks.
Phase RunOpenLoop(femux::ScalerDaemon& daemon, const Inputs& inputs, std::size_t first,
                  std::size_t last, double interval_ms, DecisionLog* log) {
  Phase phase;
  const std::size_t ticks = last - first + 1;
  phase.push_latency_us.reserve(ticks * kApps);
  phase.push_call_us.reserve(ticks * kApps);
  // The generator writes `phase`'s push fields; they are read after join.
  std::atomic<std::size_t> pushed_through{first - 1};
  const Clock::time_point base = Clock::now() + FromMs(interval_ms);
  const auto tick_due = [&](std::size_t t) {
    return base + FromMs(interval_ms * static_cast<double>(t - first));
  };

  std::jthread generator([&] {
    const std::size_t per_group = (kApps + kPushGroups - 1) / kPushGroups;
    for (std::size_t t = first; t <= last; ++t) {
      const Clock::time_point window = tick_due(t) - FromMs(interval_ms);
      for (std::size_t g = 0; g < kPushGroups; ++g) {
        const Clock::time_point due =
            window + FromMs(interval_ms * (kPushStart + kPushSpread * static_cast<double>(g) /
                                                             static_cast<double>(kPushGroups)));
        std::this_thread::sleep_until(due);
        phase.group_lag_ms.push_back(Ms(Clock::now() - due).count());
        const std::size_t end = std::min(kApps, (g + 1) * per_group);
        for (std::size_t i = g * per_group; i < end; ++i) {
          const long k = SampleIndex(inputs, i, t);
          if (k < 0) {
            continue;
          }
          const auto call = Clock::now();
          const bool ok = daemon.Push({inputs.ids[i], static_cast<std::uint64_t>(k + 1),
                                       inputs.demand[i][static_cast<std::size_t>(k)]});
          const auto done = Clock::now();
          phase.push_latency_us.push_back(
              std::chrono::duration<double, std::micro>(done - due).count());
          phase.push_call_us.push_back(
              std::chrono::duration<double, std::micro>(done - call).count());
          ++phase.pushes;
          if (!ok) {
            ++phase.dropped;
          }
        }
      }
      pushed_through.store(t, std::memory_order_release);
    }
  });

  for (std::size_t t = first; t <= last; ++t) {
    const Clock::time_point due = tick_due(t);
    std::this_thread::sleep_until(due);
    if (pushed_through.load(std::memory_order_acquire) < t) {
      ++phase.late_ticks;
    }
    const auto tick_start = Clock::now();
    daemon.TickOnce();
    const auto tick_end = Clock::now();
    phase.tick_latency_ms.push_back(Ms(tick_end - due).count());
    phase.tick_wall_ms.push_back(Ms(tick_end - tick_start).count());
    phase.final_lag_ms = Ms(tick_start - due).count();
    if (log != nullptr) {
      log->Record(daemon, inputs, t);
    }
  }
  generator.join();
  return phase;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// Counts a phase's pushes and ticks as operations and its drops as
// failures. A tick that fires before all its pushes arrived is not a
// failure (the samples reach the next tick); it shows in the detail line.
void CountPhase(const Phase& phase, Report* report) {
  report->Attempt(phase.pushes + phase.tick_latency_ms.size());
  if (phase.dropped > 0) {
    report->Fail(std::to_string(phase.dropped) + " pushes dropped", phase.dropped);
  }
}

// Counts the decisions between two counter snapshots as operations, and
// those not served by the forecast rung or past their deadline as failures.
void CountDecisions(const femux::DaemonCounters& from, const femux::DaemonCounters& to,
                    Report* report) {
  const std::uint64_t decisions = to.decisions - from.decisions;
  const std::uint64_t off_rung = decisions - (to.forecast_ok - from.forecast_ok);
  const std::uint64_t misses = to.deadline_misses - from.deadline_misses;
  const std::uint64_t checkpoint_failures = to.checkpoint_failures - from.checkpoint_failures;
  report->Attempt(decisions);
  if (off_rung > 0) {
    report->Fail(std::to_string(off_rung) + " decisions not served by the forecast rung",
                 off_rung);
  }
  if (misses > 0) {
    report->Fail(std::to_string(misses) + " decision deadline misses", misses);
  }
  if (checkpoint_failures > 0) {
    report->Fail("checkpoint writes failed", checkpoint_failures);
  }
}

// Checks every logged target of the sampled apps against a plain
// IncrementalSession making the same calls: one forecast per tick over the
// samples the daemon had ingested by then. Returns the RUM per sampled app
// of an in-order replay (one new sample per decision) over the samples
// pushed in ticks [first, last]: a pure function of the inputs, where the
// daemon's own targets also depend on which tick drained each sample.
double CheckDecisions(const Inputs& inputs, const DecisionLog& log,
                      const femux::ScalerDaemonOptions& options, std::size_t first,
                      std::size_t last, Report* report) {
  const auto prototype = femux::MakeForecasterByName(options.forecaster);
  const std::size_t ring = std::max(options.history_window, prototype->preferred_history());
  const auto forecast = [&](femux::Forecaster& forecaster, femux::IncrementalSession& session,
                            const std::vector<double>& demand, std::size_t n) {
    const std::size_t w = std::min(n, ring);
    const std::span<const double> window(demand.data() + n - w, w);
    return femux::ClampPrediction(
               session.ForecastStreamed(forecaster, window, n, options.history_window)) *
           options.margin;
  };
  const auto baseline = femux::MakeForecasterByName(kBaselineForecaster);
  std::vector<femux::SimMetrics> per_app;
  std::vector<femux::SimMetrics> baseline_per_app;
  for (std::size_t j = 0; j < log.apps.size(); ++j) {
    const std::size_t i = log.apps[j];
    const std::vector<double>& demand = inputs.demand[i];

    const auto replayed = prototype->Clone();
    femux::IncrementalSession session;
    std::size_t mismatches = 0;
    const std::size_t ticks = std::min(log.check_through, log.observed[j].size());
    for (std::size_t t = 0; t < ticks; ++t) {
      const std::uint64_t n = log.observed[j][t];
      if (n == 0) {
        continue;
      }
      if (n > demand.size() || log.targets[j][t] != forecast(*replayed, session, demand, n)) {
        ++mismatches;
      }
    }
    report->Check(mismatches == 0, inputs.ids[i] + ": " + std::to_string(mismatches) +
                                       " decisions differ from a plain session");

    // The target after n samples provisions sample n.
    const long begin = SampleIndex(inputs, i, first);
    const long end = SampleIndex(inputs, i, last) + 1;
    const auto in_order_plan = [&](const femux::Forecaster& prototype_forecaster) {
      const auto in_order = prototype_forecaster.Clone();
      femux::IncrementalSession in_order_session;
      std::vector<double> plan;
      for (long n = 1; n < end; ++n) {
        const double target =
            forecast(*in_order, in_order_session, demand, static_cast<std::size_t>(n));
        if (n >= begin) {
          plan.push_back(target);
        }
      }
      return plan;
    };
    femux::SimOptions sim;
    sim.memory_gb_per_unit = inputs.memory_gb[i];
    const std::size_t b = static_cast<std::size_t>(begin);
    const std::size_t count = static_cast<std::size_t>(end - begin);
    const auto simulate = [&](const std::vector<double>& plan) {
      return femux::SimulatePlan(std::span<const double>(demand).subspan(b, count),
                                 std::span<const double>(inputs.arrivals[i]).subspan(b, count),
                                 plan, sim);
    };
    per_app.push_back(simulate(in_order_plan(*prototype)));
    baseline_per_app.push_back(simulate(in_order_plan(*baseline)));
  }
  std::size_t rum_apps = 0;
  const double rum = RelativeRum(per_app, baseline_per_app, &rum_apps);
  report->Detail("rum_apps", static_cast<double>(rum_apps));
  return rum;
}

}  // namespace

void RunDaemonTick(const RunArgs& args, Report* report) {
  const std::size_t timed_ticks =
      static_cast<std::size_t>(std::floor(args.seconds * 1e3 / kTickMs));
  // The traced run splits its time into an untraced phase, a traced phase
  // and the sustained-rate ladder.
  const std::size_t phase_ticks = args.trace ? timed_ticks / 3 : timed_ticks;
  const auto ladder_ticks = [&](double interval_ms) {
    return static_cast<std::size_t>(args.seconds * 1e3 / 3.0 / std::size(kLadderMs) /
                                    interval_ms);
  };
  std::size_t total_ticks = kWarmTicks + phase_ticks;
  if (args.trace) {
    total_ticks += phase_ticks;
    for (const double ms : kLadderMs) {
      total_ticks += ladder_ticks(ms);
    }
  }
  const Inputs inputs = MakeInputs(args.seed, total_ticks + 1);

  std::filesystem::create_directories(args.work_dir);
  const std::string checkpoint =
      (std::filesystem::path(args.work_dir) / ("daemon-" + std::to_string(getpid()) + ".ckpt"))
          .string();
  const femux::ScalerDaemonOptions options = DaemonOptions(checkpoint);

  DecisionLog log;
  for (std::size_t j = 0; j < kSampledApps; ++j) {
    log.apps.push_back(j * (kApps / kSampledApps));
  }
  log.targets.resize(kSampledApps);
  log.observed.resize(kSampledApps);

  // Set-up: a fresh daemon warmed past every app's window, several times.
  std::unique_ptr<femux::ScalerDaemon> daemon;
  std::vector<double> setups;
  for (std::size_t s = 0; s < kSetups; ++s) {
    daemon.reset();
    const auto start = Clock::now();
    daemon = std::make_unique<femux::ScalerDaemon>(options);
    RunUnpaced(*daemon, inputs, 1, kWarmTicks, s + 1 == kSetups ? &log : nullptr, report);
    setups.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Median(setups));
  daemon->DrainDecisionLatenciesUs();

  std::size_t next = kWarmTicks + 1;
  const auto run_phase = [&](std::size_t ticks, double interval_ms) {
    Phase phase = RunOpenLoop(*daemon, inputs, next, next + ticks - 1, interval_ms, &log);
    next += ticks;
    return phase;
  };

  const femux::DaemonCounters before = daemon->counters();
  const Phase timed = run_phase(phase_ticks, kTickMs);
  CountPhase(timed, report);
  const Tail tail = TailOf(timed.tick_latency_ms);
  report->Set("latency_p50_ms", Median(timed.tick_latency_ms));
  report->Set("latency_tail_ms", tail.value);
  // Decisions per second of a median tick's TickOnce wall: the decision
  // rate of the tick path, unmoved by the host stalls and checkpoint ticks
  // that set the tail.
  report->Set("apps_per_s", 1e3 * static_cast<double>(kApps) / Median(timed.tick_wall_ms));
  report->Detail("ticks", static_cast<double>(tail.samples));
  report->Detail("latency_tail_percentile", tail.percentile);
  report->Detail("final_lag_ms", timed.final_lag_ms);
  report->Detail("push_p99_us", Percentile(timed.push_latency_us, 0.99));
  report->Detail("late_input_ticks", static_cast<double>(timed.late_ticks));

  if (args.trace) {
    const std::vector<double> untraced_decision_us = daemon->DrainDecisionLatenciesUs();
    const femux::DaemonCounters mid = daemon->counters();
    const Phase traced = run_phase(phase_ticks, kTickMs);
    CountPhase(traced, report);
    const femux::DaemonCounters after = daemon->counters();
    const std::vector<double> decision_us = daemon->DrainDecisionLatenciesUs();
    const double ticks = static_cast<double>(after.ticks - mid.ticks);
    const double wall_ms =
        std::accumulate(traced.tick_wall_ms.begin(), traced.tick_wall_ms.end(), 0.0);
    const double pool = static_cast<double>(femux::ConfiguredThreadCount());
    const double checkpoints = static_cast<double>(after.checkpoints - mid.checkpoints);
    report->Set("serve.push_us_mean", Mean(traced.push_call_us));
    report->Set("serve.push_p99_us", Percentile(traced.push_latency_us, 0.99));
    report->Set("serve.tick_ms", Mean(traced.tick_wall_ms));
    report->Set("serve.ingest_us", (after.ingest_us - mid.ingest_us) / ticks);
    report->Set("serve.decide_us", (after.decide_us - mid.decide_us) / ticks);
    report->Set("serve.checkpoint_ms",
                checkpoints > 0.0 ? 1e-3 * (after.checkpoint_us - mid.checkpoint_us) / checkpoints
                                  : 0.0);
    report->Set("serve.decision_us_p50", Percentile(decision_us, 0.5));
    report->Set("serve.decision_us_p99", Percentile(decision_us, 0.99));
    report->Set("serve.shard_parallel_eff",
                1e-3 * (after.decide_us - mid.decide_us) / (wall_ms * pool));
    report->Set("serve.checkpoint_bytes", static_cast<double>(after.checkpoint_bytes));
    report->Set("serve.drops", static_cast<double>(after.drops - before.drops));
    report->Set("serve.generator_lag_ms", Percentile(traced.group_lag_ms, 0.99));
    report->Set("bench.trace_overhead_pct",
                100.0 * (Median(traced.tick_latency_ms) / Median(timed.tick_latency_ms) - 1.0));
    report->Detail("untraced_decision_us_p50", Percentile(untraced_decision_us, 0.5));
  }
  CountDecisions(before, daemon->counters(), report);
  const std::size_t checked_last = next - 1;

  if (args.trace) {
    // Sustained rate: the highest offered rate whose tail tick latency
    // stays under the interval with no drops, no late inputs and no
    // growing lag. Steps past capacity are expected to miss, so the ladder
    // is reported, not counted as operations.
    double sustained = 0.0;
    std::string steps = "[";
    for (const double ms : kLadderMs) {
      const femux::DaemonCounters step_before = daemon->counters();
      const Phase step = run_phase(ladder_ticks(ms), ms);
      const femux::DaemonCounters step_after = daemon->counters();
      const double step_tail = TailOf(step.tick_latency_ms).value;
      const bool held = step.dropped == 0 && step.late_ticks == 0 && step_tail < ms &&
                        step.final_lag_ms < ms &&
                        step_after.deadline_misses == step_before.deadline_misses;
      if (held) {
        sustained = std::max(sustained, static_cast<double>(kApps) * 1e3 / ms);
      }
      steps += std::string(steps.size() > 1 ? ", " : "") + "{\"interval_ms\": " +
               std::to_string(ms) + ", \"tail_ms\": " + std::to_string(step_tail) +
               ", \"held\": " + (held ? "true" : "false") + "}";
    }
    report->Set("serve.sustained_decisions_per_s", sustained);
    report->Detail("ladder", steps + "]");
  }

  // Decisions are checked through the last counted phase; RUM covers the
  // first timed phase.
  log.check_through = checked_last;
  report->Set("rum", CheckDecisions(inputs, log, options, kWarmTicks + 1,
                                    kWarmTicks + phase_ticks, report));
  report->Set("peak_rss_mb", PeakRssMb());
  daemon.reset();
  std::filesystem::remove(checkpoint);
}

}  // namespace perfbench
