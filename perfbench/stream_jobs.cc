#include "perfbench/stream_jobs.h"

#include <algorithm>
#include <cstdio>

#include "src/forecast/registry.h"
#include "src/sim/policy.h"
#include "src/stats/fft.h"

namespace perfbench {
namespace {

std::uint64_t NanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

}  // namespace

femux::AppTrace TimedSource::MakeApp(std::size_t index) const {
  const auto start = Clock::now();
  femux::AppTrace app = base_->MakeApp(index);
  ns_.fetch_add(NanosSince(start), std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return app;
}

void TimedSource::MakeAppInto(std::size_t index, femux::AppTrace* out) const {
  const auto start = Clock::now();
  base_->MakeAppInto(index, out);
  ns_.fetch_add(NanosSince(start), std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
}

TimedPolicy::TimedPolicy(std::unique_ptr<femux::ScalingPolicy> inner,
                         std::shared_ptr<PolicyTimes> times)
    : inner_(std::move(inner)), times_(std::move(times)) {}

TimedPolicy::~TimedPolicy() {
  times_->ns.fetch_add(ns_, std::memory_order_relaxed);
  times_->calls.fetch_add(calls_, std::memory_order_relaxed);
}

double TimedPolicy::TargetUnits(std::span<const double> demand_history) {
  const auto start = Clock::now();
  const double target = inner_->TargetUnits(demand_history);
  ns_ += NanosSince(start);
  ++calls_;
  return target;
}

std::unique_ptr<femux::ScalingPolicy> TimedPolicy::Clone() const {
  return std::make_unique<TimedPolicy>(inner_->Clone(), times_);
}

TimedFemuxPolicy::TimedFemuxPolicy(std::shared_ptr<const femux::FemuxModel> model,
                                   std::shared_ptr<FemuxTimes> times)
    : model_(model), inner_(std::move(model)), times_(std::move(times)) {}

TimedFemuxPolicy::~TimedFemuxPolicy() {
  std::lock_guard<std::mutex> lock(times_->mu);
  for (std::size_t f = 0; f < FemuxTimes::kForecasters; ++f) {
    times_->ns[f] += ns_[f];
    times_->calls[f] += calls_[f];
  }
  times_->boundary_ns += boundary_ns_;
  times_->boundary_calls += boundary_calls_;
  times_->switches += static_cast<std::uint64_t>(inner_.switch_count());
}

double TimedFemuxPolicy::TargetUnits(std::span<const double> demand_history) {
  const auto start = Clock::now();
  const double target = inner_.TargetUnits(demand_history);
  const std::uint64_t ns = NanosSince(start);
  if (demand_history.empty()) {
    return target;
  }
  // FemuxPolicy completes a block on every block_minutes-th sample, in
  // exact and sketch feature mode alike.
  if (++observed_ % model_->block_minutes == 0) {
    boundary_ns_ += ns;
    ++boundary_calls_;
  } else {
    const auto f = static_cast<std::size_t>(inner_.current_forecaster());
    if (f < FemuxTimes::kForecasters) {
      ns_[f] += ns;
      ++calls_[f];
    }
  }
  return target;
}

std::unique_ptr<femux::ScalingPolicy> TimedFemuxPolicy::Clone() const {
  return std::make_unique<TimedFemuxPolicy>(model_, times_);
}

void RunJobs(const femux::TraceSource& source, const JobPlan& plan,
             const femux::ScalingPolicy& prototype,
             const femux::FleetStreamOptions& options, double seconds,
             std::size_t min_jobs, std::map<std::size_t, femux::SimMetrics>* first_totals,
             Report* report, JobLoop* loop) {
  const auto loop_start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  std::size_t jobs = 0;
  while (jobs < min_jobs || SecondsSince(loop_start) < seconds) {
    const std::size_t slice = loop->next_slice % plan.slices;
    loop->next_slice = slice + 1;
    const SliceSource job(source, (plan.first_slice + slice) * plan.job_apps,
                          plan.job_apps);
    const auto start = Clock::now();
    const femux::FleetStreamResult result =
        femux::SimulateFleetStreamUniform(job, prototype, options);
    const double wall = SecondsSince(start);
    ++jobs;
    loop->latencies_s.push_back(wall);
    loop->busy_s += wall;
    loop->apps += result.apps;
    loop->epochs += result.epochs;
    loop->peak_pending_chunks = std::max(loop->peak_pending_chunks, result.peak_pending_chunks);
    loop->backpressure_waits += result.backpressure_waits;
    report->Attempt(result.apps);
    if (result.apps != plan.job_apps) {
      report->Fail("job over slice " + std::to_string(slice) + " simulated " +
                       std::to_string(result.apps) + " apps",
                   plan.job_apps - std::min(plan.job_apps, result.apps));
    }
    const auto [it, first] = first_totals->try_emplace(slice, result.total);
    if (!first) {
      report->Check(BitIdentical(it->second, result.total),
                    "slice " + std::to_string(slice) + " total changed between visits");
    }
  }
  loop->cpu_s += ProcessCpuSeconds() - cpu_start;
}

void RunPairedJobs(const femux::TraceSource& source, const TimedSource& timed_source,
                   const JobPlan& plan, const femux::ScalingPolicy& prototype,
                   const femux::ScalingPolicy& timed_prototype,
                   const femux::FleetStreamOptions& options, double seconds,
                   std::size_t min_jobs, std::map<std::size_t, femux::SimMetrics>* first_totals,
                   Report* report, JobLoop* untraced, JobLoop* traced) {
  const auto start = Clock::now();
  while (untraced->latencies_s.size() < min_jobs || SecondsSince(start) < seconds) {
    RunJobs(source, plan, prototype, options, 0.0, 1, first_totals, report, untraced);
    RunJobs(timed_source, plan, timed_prototype, options, 0.0, 1, first_totals, report, traced);
  }
}

void ReportPairedJobs(const JobLoop& untraced, const JobLoop& traced,
                      const TimedSource& timed_source, double policy_s, std::size_t threads,
                      Report* report) {
  const double n = static_cast<double>(threads);
  const double trace_s = timed_source.busy_seconds();
  const double untraced_rate = static_cast<double>(untraced.apps) / untraced.busy_s;
  const double traced_rate = static_cast<double>(traced.apps) / traced.busy_s;
  report->Set("trace.make_app_us", 1e6 * trace_s / static_cast<double>(timed_source.calls()));
  report->Set("trace.busy_share", trace_s / (traced.busy_s * n));
  report->Set("sim.cpu_util", untraced.cpu_s / (untraced.busy_s * n));
  report->Set("sim.self_share", (traced.cpu_s - trace_s - policy_s) / traced.cpu_s);
  report->Set("sim.backpressure_waits", static_cast<double>(untraced.backpressure_waits) /
                                            static_cast<double>(untraced.latencies_s.size()));
  report->Set("sim.peak_pending_chunks", static_cast<double>(untraced.peak_pending_chunks));
  report->Set("bench.trace_overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0));
  report->Detail("untraced_apps_per_s", untraced_rate);
}

std::vector<femux::SimMetrics> CheckAgainstSerial(
    const femux::TraceSource& source, const JobPlan& plan,
    const femux::ScalingPolicy& prototype, const femux::FleetStreamOptions& options,
    std::size_t count, const std::map<std::size_t, femux::SimMetrics>& first_totals,
    Report* report) {
  femux::FleetStreamOptions serial = options;
  serial.threads = 1;
  std::vector<femux::SimMetrics> per_app;
  serial.per_app_sink = [&](std::size_t, const femux::SimMetrics& m) { per_app.push_back(m); };
  for (std::size_t slice = 0; slice < count; ++slice) {
    const SliceSource job(source, (plan.first_slice + slice) * plan.job_apps,
                          plan.job_apps);
    const femux::SimMetrics reference =
        femux::SimulateFleetStreamUniform(job, prototype, serial).total;
    const auto it = first_totals.find(slice);
    report->Check(it != first_totals.end() && BitIdentical(it->second, reference),
                  "slice " + std::to_string(slice) + " differs from its 1-thread run");
  }
  return per_app;
}

std::vector<femux::SimMetrics> BaselinePerApp(const femux::TraceSource& source,
                                              const JobPlan& plan,
                                              const femux::FleetStreamOptions& options,
                                              std::size_t count) {
  femux::FleetStreamOptions per_app_options = options;
  std::vector<femux::SimMetrics> per_app;
  per_app_options.per_app_sink = [&](std::size_t, const femux::SimMetrics& m) {
    per_app.push_back(m);
  };
  const femux::ForecasterPolicy baseline(femux::MakeForecasterByName(kBaselineForecaster));
  for (std::size_t slice = 0; slice < count; ++slice) {
    const SliceSource job(source, (plan.first_slice + slice) * plan.job_apps,
                          plan.job_apps);
    femux::SimulateFleetStreamUniform(job, baseline, per_app_options);
  }
  return per_app;
}

void ReportJobLatency(const JobLoop& loop, Report* report) {
  std::vector<double> ms;
  ms.reserve(loop.latencies_s.size());
  for (const double s : loop.latencies_s) {
    ms.push_back(1e3 * s);
  }
  const Tail tail = TailOf(ms);
  const double apps_per_job = static_cast<double>(loop.apps) /
                              static_cast<double>(loop.latencies_s.size());
  std::vector<double> window_rates;
  double window_s = 0.0;
  std::size_t window_jobs = 0;
  // Jobs run back to back, so a window closes after a second of job time.
  for (std::size_t j = 0; j < loop.latencies_s.size(); ++j) {
    window_s += loop.latencies_s[j];
    ++window_jobs;
    if (window_s >= 1.0 || j + 1 == loop.latencies_s.size()) {
      window_rates.push_back(apps_per_job * static_cast<double>(window_jobs) / window_s);
      window_s = 0.0;
      window_jobs = 0;
    }
  }
  report->Set("apps_per_s", Median(window_rates));
  report->Detail("throughput_windows", static_cast<double>(window_rates.size()));
  report->Set("latency_p50_ms", Median(ms));
  report->Set("latency_tail_ms", tail.value);
  report->Detail("jobs", static_cast<double>(tail.samples));
  report->Detail("latency_tail_percentile", tail.percentile);
  report->Detail("apps", static_cast<double>(loop.apps));
  report->Detail("epochs", static_cast<double>(loop.epochs));
}

void ReportFftCache(std::uint64_t misses_before, std::uint64_t evictions_before,
                    Report* report) {
  const femux::FftCacheStats stats = femux::GetFftCacheStats();
  report->Set("stats.fft_cache_misses", static_cast<double>(stats.misses - misses_before));
  report->Set("stats.fft_cache_evictions",
              static_cast<double>(stats.evictions - evictions_before));
  report->Set("stats.fft_table_mb",
              static_cast<double>(stats.table_bytes) / (1024.0 * 1024.0));
}

}  // namespace perfbench
