// Fleet replay jobs shared by the fleet_stream and femux workloads.
//
// A job is one SimulateFleetStreamUniform call over a fixed slice of a
// fleet, the unit whose latency both workloads report. Slices are visited
// in order and wrap around, so a run of any length replays a deterministic
// sequence; the first visit of each slice is kept to check every later
// visit, and the first few slices are checked against a 1-thread run.
//
// The wrappers below time calls into the trace and policy layers from
// outside, for the traced run only.
#ifndef PERFBENCH_STREAM_JOBS_H_
#define PERFBENCH_STREAM_JOBS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/metric_names.h"
#include "perfbench/report.h"
#include "src/core/femux.h"
#include "src/sim/fleet_stream.h"
#include "src/trace/stream.h"

namespace perfbench {

// Apps [begin, begin + count) of `base`, re-indexed from 0.
class SliceSource final : public femux::TraceSource {
 public:
  SliceSource(const femux::TraceSource& base, std::size_t begin, std::size_t count)
      : base_(&base), begin_(begin), count_(count) {}
  std::string name() const override { return base_->name(); }
  std::size_t app_count() const override { return count_; }
  int duration_days() const override { return base_->duration_days(); }
  femux::AppTrace MakeApp(std::size_t index) const override {
    return base_->MakeApp(begin_ + index);
  }
  void MakeAppInto(std::size_t index, femux::AppTrace* out) const override {
    base_->MakeAppInto(begin_ + index, out);
  }

 private:
  const femux::TraceSource* base_;
  std::size_t begin_;
  std::size_t count_;
};

// Forwards to `base` and accumulates the wall time of every MakeAppInto.
class TimedSource final : public femux::TraceSource {
 public:
  explicit TimedSource(const femux::TraceSource& base) : base_(&base) {}
  std::string name() const override { return base_->name(); }
  std::size_t app_count() const override { return base_->app_count(); }
  int duration_days() const override { return base_->duration_days(); }
  femux::AppTrace MakeApp(std::size_t index) const override;
  void MakeAppInto(std::size_t index, femux::AppTrace* out) const override;

  double busy_seconds() const { return 1e-9 * static_cast<double>(ns_.load()); }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  const femux::TraceSource* base_;
  mutable std::atomic<std::uint64_t> ns_{0};
  mutable std::atomic<std::uint64_t> calls_{0};
};

// Time spent inside policy decisions, merged from per-app wrappers.
struct PolicyTimes {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
};

// Times every TargetUnits call of a wrapped policy. Each clone serves one
// app on one thread and merges its sums into `times` when destroyed.
class TimedPolicy final : public femux::ScalingPolicy {
 public:
  TimedPolicy(std::unique_ptr<femux::ScalingPolicy> inner,
              std::shared_ptr<PolicyTimes> times);
  ~TimedPolicy() override;
  std::string_view name() const override { return inner_->name(); }
  double TargetUnits(std::span<const double> demand_history) override;
  std::unique_ptr<femux::ScalingPolicy> Clone() const override;

 private:
  std::unique_ptr<femux::ScalingPolicy> inner_;
  std::shared_ptr<PolicyTimes> times_;
  std::uint64_t ns_ = 0;
  std::uint64_t calls_ = 0;
};

// Decision times of the FeMux multiplexer, by serving forecaster, with
// block-boundary calls (feature extraction + classification + switch)
// kept apart.
struct FemuxTimes {
  static constexpr std::size_t kForecasters = std::size(kFemuxForecasters);
  std::mutex mu;
  std::array<std::uint64_t, kForecasters> ns{};
  std::array<std::uint64_t, kForecasters> calls{};
  std::uint64_t boundary_ns = 0;
  std::uint64_t boundary_calls = 0;
  std::uint64_t switches = 0;
};

class TimedFemuxPolicy final : public femux::ScalingPolicy {
 public:
  TimedFemuxPolicy(std::shared_ptr<const femux::FemuxModel> model,
                   std::shared_ptr<FemuxTimes> times);
  ~TimedFemuxPolicy() override;
  std::string_view name() const override { return inner_.name(); }
  double TargetUnits(std::span<const double> demand_history) override;
  std::unique_ptr<femux::ScalingPolicy> Clone() const override;

 private:
  std::shared_ptr<const femux::FemuxModel> model_;
  femux::FemuxPolicy inner_;
  std::shared_ptr<FemuxTimes> times_;
  std::array<std::uint64_t, FemuxTimes::kForecasters> ns_{};
  std::array<std::uint64_t, FemuxTimes::kForecasters> calls_{};
  std::uint64_t boundary_ns_ = 0;
  std::uint64_t boundary_calls_ = 0;
  std::uint64_t observed_ = 0;
};

// Slicing of a fleet into jobs.
struct JobPlan {
  std::size_t job_apps = 0;
  std::size_t slices = 0;      // Distinct slices; visit order wraps.
  std::size_t first_slice = 0;
};

struct JobLoop {
  std::vector<double> latencies_s;  // One per job.
  std::size_t apps = 0;
  std::uint64_t epochs = 0;
  double busy_s = 0.0;    // Sum of job walls.
  double cpu_s = 0.0;     // Process CPU time over the loop.
  std::size_t next_slice = 0;
  std::size_t peak_pending_chunks = 0;
  std::size_t backpressure_waits = 0;
};

// Replays jobs of `plan` over `source` with `prototype` until `seconds`
// have passed and at least `min_jobs` jobs ran, continuing the slice
// sequence at `loop->next_slice`. The first total seen for each slice is
// stored in `first_totals`; a later visit that differs fails a check.
void RunJobs(const femux::TraceSource& source, const JobPlan& plan,
             const femux::ScalingPolicy& prototype,
             const femux::FleetStreamOptions& options, double seconds,
             std::size_t min_jobs, std::map<std::size_t, femux::SimMetrics>* first_totals,
             Report* report, JobLoop* loop);

// The traced run's job loop: untraced jobs over `source` with `prototype`
// alternate with traced jobs over `timed_source` with `timed_prototype`,
// visiting the same slices, for `seconds` and at least `min_jobs` pairs, so
// the tracing overhead is measured on paired jobs.
void RunPairedJobs(const femux::TraceSource& source, const TimedSource& timed_source,
                   const JobPlan& plan, const femux::ScalingPolicy& prototype,
                   const femux::ScalingPolicy& timed_prototype,
                   const femux::FleetStreamOptions& options, double seconds,
                   std::size_t min_jobs, std::map<std::size_t, femux::SimMetrics>* first_totals,
                   Report* report, JobLoop* untraced, JobLoop* traced);

// Sets the trace.* and sim.* per-layer metrics and bench.trace_overhead_pct
// from a paired loop; `policy_s` is the time the traced policy wrappers
// measured.
void ReportPairedJobs(const JobLoop& untraced, const JobLoop& traced,
                      const TimedSource& timed_source, double policy_s, std::size_t threads,
                      Report* report);

// Checks slices [0, count) of `first_totals` bit for bit against a
// 1-thread run of the same inputs, and returns that run's per-app metrics.
std::vector<femux::SimMetrics> CheckAgainstSerial(
    const femux::TraceSource& source, const JobPlan& plan,
    const femux::ScalingPolicy& prototype, const femux::FleetStreamOptions& options,
    std::size_t count, const std::map<std::size_t, femux::SimMetrics>& first_totals,
    Report* report);

// Per-app metrics of a fixed 10-minute keep-alive policy (the industry
// baseline the paper compares against) over slices [0, count).
std::vector<femux::SimMetrics> BaselinePerApp(const femux::TraceSource& source, const JobPlan& plan,
                                const femux::FleetStreamOptions& options, std::size_t count);

// Sets the end-to-end metrics every job workload shares: apps_per_s,
// latency_p50_ms and latency_tail_ms, plus the tail's percentile and
// sample count as detail fields. apps_per_s is the median over one-second
// windows of the apps per second of job time in the window, so a host
// stall that slows a few windows does not move it.
void ReportJobLatency(const JobLoop& loop, Report* report);

// Sets the stats.fft_* metrics from the FFT plan cache, as the change since
// `misses_before`/`evictions_before`.
void ReportFftCache(std::uint64_t misses_before, std::uint64_t evictions_before,
                    Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_JOBS_H_
