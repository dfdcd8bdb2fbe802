// fleet_stream: per-second Huawei-like apps through the streaming fleet
// pipeline. Forecasting is a one-sample moving average, so trace
// generation, series expansion, simulation and the ordered chunk fold do
// nearly all the work; fold, thread-pool, trace and memory changes show
// here and FeMux's forecasters do not.
#include <memory>

#include "perfbench/stream_jobs.h"
#include "perfbench/workloads.h"
#include "src/forecast/registry.h"
#include "src/sim/policy.h"
#include "src/stats/fft.h"
#include "src/trace/huawei_generator.h"

namespace perfbench {
namespace {

// 32 job slices of 8192 apps plus one slice reserved for set-up: a run
// visits each slice a few times, so a seed's fleet is averaged over ~260k
// apps rather than over the few heavy ones of a small fleet. A ~250 ms job
// also averages over the multi-millisecond pauses a shared virtual
// machine's vCPUs take, which shorter jobs turned into tail outliers.
constexpr std::size_t kJobApps = 8192;
constexpr std::size_t kJobSlices = 32;
constexpr std::size_t kFleetApps = kJobApps * (kJobSlices + 1);
constexpr int kMinutes = 20;
constexpr double kEpochSeconds = 10.0;
constexpr std::size_t kSetups = 3;
// Slices checked bit for bit against a 1-thread run; also the minimum
// number of jobs per loop, so the checked slices always ran.
constexpr std::size_t kSerialChecks = 1;

}  // namespace

void RunFleetStream(const RunArgs& args, Report* report) {
  femux::HuaweiGeneratorOptions generator;
  generator.num_apps = static_cast<int>(kFleetApps);
  generator.duration_minutes = kMinutes;
  generator.seed = args.seed;
  const femux::HuaweiTraceSource source(generator);

  femux::FleetStreamOptions options;
  options.sim.epoch_seconds = kEpochSeconds;
  options.threads = args.threads;
  const femux::ForecasterPolicy policy(femux::MakeForecasterByName("moving_average_1"));
  const JobPlan plan{kJobApps, kJobSlices, 0};

  // Set-up: the thread pool starts and per-worker arenas reach their
  // steady size on one job over the reserved slice.
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    const SliceSource warm(source, kJobSlices * kJobApps, kJobApps);
    femux::SimulateFleetStreamUniform(warm, policy, options);
    setups.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Median(setups));

  const femux::FftCacheStats fft_before = femux::GetFftCacheStats();
  std::map<std::size_t, femux::SimMetrics> firsts;
  if (!args.trace) {
    JobLoop loop;
    RunJobs(source, plan, policy, options, args.seconds, kSerialChecks, &firsts, report,
            &loop);
    ReportJobLatency(loop, report);
  } else {
    // Two thirds of the time go to paired untraced and traced jobs (timing
    // wrappers around the trace source and the policy), the last third to
    // the 1-thread baseline.
    const TimedSource timed_source(source);
    auto policy_times = std::make_shared<PolicyTimes>();
    const TimedPolicy timed_policy(policy.Clone(), policy_times);
    JobLoop untraced;
    JobLoop traced;
    RunPairedJobs(source, timed_source, plan, policy, timed_policy, options,
                  args.seconds * 2.0 / 3.0, kSerialChecks, &firsts, report, &untraced,
                  &traced);
    femux::FleetStreamOptions serial = options;
    serial.threads = 1;
    JobLoop one_thread;
    RunJobs(source, plan, policy, serial, args.seconds / 3.0, 1, &firsts, report, &one_thread);

    ReportPairedJobs(untraced, traced, timed_source,
                     1e-9 * static_cast<double>(policy_times->ns.load()), args.threads, report);
    const double one_thread_rate = static_cast<double>(one_thread.apps) / one_thread.busy_s;
    report->Set("sim.scaling_x", static_cast<double>(untraced.apps) / untraced.busy_s /
                                     one_thread_rate);
    report->Detail("one_thread_apps_per_s", one_thread_rate);
    report->Detail("policy_decisions", static_cast<double>(policy_times->calls.load()));
  }
  ReportFftCache(fft_before.misses, fft_before.evictions, report);

  const std::vector<femux::SimMetrics> checked =
      CheckAgainstSerial(source, plan, policy, options, kSerialChecks, firsts, report);
  std::size_t rum_apps = 0;
  report->Set("rum", RelativeRum(checked, BaselinePerApp(source, plan, options, kSerialChecks),
                                 &rum_apps));
  report->Detail("rum_apps", static_cast<double>(rum_apps));
  report->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
