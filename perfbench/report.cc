#include "perfbench/report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench/metric_names.h"
#include "src/core/rum.h"
#include "src/stats/simd.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  // Ten samples lie strictly above index n - 11.
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool BitIdentical(const femux::SimMetrics& a, const femux::SimMetrics& b) {
  const double lhs[] = {a.invocations,       a.cold_starts,          a.cold_invocations,
                        a.cold_start_seconds, a.wasted_gb_seconds,    a.allocated_gb_seconds,
                        a.execution_seconds,  a.service_seconds};
  const double rhs[] = {b.invocations,       b.cold_starts,          b.cold_invocations,
                        b.cold_start_seconds, b.wasted_gb_seconds,    b.allocated_gb_seconds,
                        b.execution_seconds,  b.service_seconds};
  return std::memcmp(lhs, rhs, sizeof(lhs)) == 0;
}

double RelativeRum(const std::vector<femux::SimMetrics>& policy,
                   const std::vector<femux::SimMetrics>& baseline, std::size_t* apps) {
  const femux::Rum rum = femux::Rum::Default();
  double log_sum = 0.0;
  *apps = 0;
  for (std::size_t i = 0; i < policy.size() && i < baseline.size(); ++i) {
    const double p = rum.Evaluate(policy[i]);
    const double b = rum.Evaluate(baseline[i]);
    if (p > 0.0 && b > 0.0) {
      log_sum += std::log(p / b);
      ++*apps;
    }
  }
  return *apps > 0 ? std::exp(log_sum / static_cast<double>(*apps)) : 0.0;
}

void Report::Set(const std::string& name, double value) { metrics_[name] = value; }

double Report::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second;
}

void Report::Detail(const std::string& key, const std::string& json) {
  details_.emplace_back(key, json);
}

void Report::Detail(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", std::isfinite(value) ? value : 0.0);
  details_.emplace_back(key, buffer);
}

void Report::Fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (failures_.size() < 32) {
    failures_.push_back(why);
  }
}

void Report::Check(bool ok, const std::string& what) {
  Attempt();
  if (!ok) {
    Fail(what);
  }
}

namespace {

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

bool Report::Print(bool trace) const {
  std::string metrics;
  const auto append = [&](const MetricName& metric, double value) {
    metrics += (metrics.empty() ? "" : ", ") + JsonString(metric.name) +
               ": {\"value\": " + Number(value) + ", \"unit\": " +
               JsonString(metric.unit) + "}";
  };
  if (trace) {
    for (const MetricName& metric : PerLayerMetrics()) {
      const double value = Get(metric.name);
      append(metric, std::isfinite(value) ? value : 0.0);
    }
  } else {
    for (const MetricName& metric : EndToEndMetrics()) {
      const auto it = metrics_.find(metric.name);
      if (it == metrics_.end() || !std::isfinite(it->second) || it->second <= 0.0) {
        std::fprintf(stderr, "perfbench: end-to-end metric %s missing or not positive\n",
                     metric.name);
        return false;
      }
      append(metric, it->second);
    }
  }

  std::string detail = "{\"detail\": {";
  for (std::size_t i = 0; i < details_.size(); ++i) {
    detail += (i == 0 ? "" : ", ") + JsonString(details_[i].first) + ": " +
              details_[i].second;
  }
  detail += std::string(details_.empty() ? "" : ", ") + "\"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    detail += (i == 0 ? "" : ", ") + JsonString(failures_[i]);
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted_, 1)),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return true;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ProvenanceJson(const RunArgs& args) {
  const femux::simd::SimdCaps caps = femux::simd::GetSimdCaps();
  const char* threads_env = std::getenv("FEMUX_THREADS");
  std::ostringstream out;
  out << "{\"provenance\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"femux_threads\": " << JsonString(threads_env != nullptr ? threads_env : "")
      << ", \"simd\": {\"detected_isa\": " << JsonString(caps.detected_isa)
      << ", \"active_isa\": " << JsonString(caps.active_isa)
      << ", \"lanes\": " << caps.lanes
      << ", \"enabled\": " << (caps.enabled ? "true" : "false")
      << ", \"femux_simd_env\": " << JsonString(caps.env)
      << ", \"kernel_table\": " << JsonString(femux::simd::ActiveTable().isa) << "}"
      << ", \"build_type\": " << JsonString(FEMUX_PERFBENCH_BUILD_TYPE)
      << ", \"workload\": " << JsonString(args.workload) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << Number(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0) << "}}";
  return out.str();
}

}  // namespace perfbench
