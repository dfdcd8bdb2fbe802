// Shared measurement and output helpers for the FeMux benchmark driver.
//
// The driver prints three lines on stdout: a provenance object, a detail
// object (sample counts, tail percentiles, check results) and, last, the
// result object with exactly the keys correct/attempted/failed/metrics.
// Everything else (progress) goes to stderr.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

// Median of `values` (mean of the middle pair for even counts); 0 if empty.
double Median(std::vector<double> values);

// The highest percentile of `values` that still has at least ten samples
// beyond it, taken as the (n - 10)-th order statistic (1-based), together
// with that percentile and the sample count. With ten or fewer samples the
// maximum is reported and `percentile` is 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> values, double p);

// User + system CPU time of the whole process, in seconds.
double ProcessCpuSeconds();

// Peak resident set size of the process (VmHWM), in MiB.
double PeakRssMb();

// True when the two totals are equal bit for bit, field by field.
bool BitIdentical(const femux::SimMetrics& a, const femux::SimMetrics& b);

// The end-to-end `rum` metric: the geometric mean over apps of each app's
// Rum::Default() under the workload's policy divided by its RUM under the
// baseline policy, over apps where both are positive. A fleet total is
// dominated by a handful of heavy apps, so its value swings with the seed;
// the per-app ratio measures the policy on a typical app. Sets `apps` to
// the number of apps averaged.
double RelativeRum(const std::vector<femux::SimMetrics>& policy,
                   const std::vector<femux::SimMetrics>& baseline, std::size_t* apps);

// Registry name of the baseline policy's forecaster.
inline constexpr const char* kBaselineForecaster = "keep_alive_10min";

// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     // Scratch directory inside the checkout.
  std::size_t threads = 1;  // nproc: worker threads a workload may keep busy.
};

// Metric and outcome collector for one run.
class Report {
 public:
  // Records a metric; its unit comes from metric_names.h.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  // Diagnostic fields for the detail line; `json` is an already-rendered
  // JSON value.
  void Detail(const std::string& key, const std::string& json);
  void Detail(const std::string& key, double value);

  // Operations attempted and failed. A failed output check is a failed
  // operation; `why` is kept for the detail line.
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why, std::uint64_t n = 1);
  // Counts one check and fails it when `ok` is false.
  void Check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  // Prints the detail line and then the result line. With `trace` the
  // metrics are the per-layer set (layers a workload leaves idle read 0);
  // otherwise the end-to-end set. Returns false, printing nothing, when an
  // end-to-end metric is missing or not a positive finite number.
  bool Print(bool trace) const;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Renders {"provenance": {...}} for the top of the output: nproc,
// FEMUX_THREADS, the SIMD dispatch report, build type, workload, seed,
// run length and mode.
std::string ProvenanceJson(const RunArgs& args);

// JSON string literal for `text` (quotes and backslashes escaped).
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
