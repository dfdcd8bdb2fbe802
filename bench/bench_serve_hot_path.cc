// Serving hot-path macro-benchmark (perf trajectory, not a paper figure).
//
// Measures the per-epoch serving path — rolling one-step forecasts over the
// demand series of an app population — once with a faithful copy of the
// pre-optimization batch path (every epoch re-windows the history and
// refits the forecaster from scratch via Forecast()) and once with the
// incremental sliding-window protocol (DESIGN.md §7: ObserveAppend +
// ForecastNext through an IncrementalSession). Parity between the two
// prediction series is asserted per forecaster at <= 1e-9 scale-relative:
// AR / SES / Holt / Markov reassociate floating-point sums incrementally,
// and FFT maintains its window spectrum by sliding-DFT updates (DESIGN.md
// §9) against a reference that runs the verbatim pre-overhaul spectral
// stack (bench/legacy_spectral.h); epochs governed by a tie-ambiguous
// harmonic selection — where the two stacks legitimately pick different
// tied bins — are excluded and counted (see AmbiguousFftEpochs). An
// end-to-end fleet comparison (legacy batch ForecasterPolicy vs the
// incremental one) is timed as well. Results are emitted as JSON so the perf trajectory is
// tracked PR over PR (see scripts/bench_to_json.sh).
//
// Usage: bench_serve_hot_path [--smoke] [--apps=N] [--days=D] [--json=PATH]
#include "bench/common.h"
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/legacy_spectral.h"
#include "src/forecast/ar.h"
#include "src/stats/fft.h"
#include "src/forecast/fft_forecaster.h"
#include "src/forecast/forecaster.h"
#include "src/forecast/markov.h"
#include "src/forecast/smoothing.h"
#include "src/sim/fleet.h"
#include "src/sim/policy.h"
#include "src/trace/azure_generator.h"

namespace femux {
namespace legacy {

// ---- Pre-PR serving path, kept verbatim so the speedup is measured
// ---- against the real baseline on the same machine, not a guess.

// The original rolling loop: every epoch re-windows the history span and
// pays a full batch Forecast() refit.
std::vector<double> RollingForecast(Forecaster& forecaster,
                                    std::span<const double> series,
                                    std::size_t history_len, std::size_t warmup) {
  history_len = std::max(history_len, forecaster.preferred_history());
  std::vector<double> predictions(series.size(), 0.0);
  for (std::size_t t = warmup; t < series.size(); ++t) {
    const std::size_t start = t > history_len ? t - history_len : 0;
    const std::span<const double> history = series.subspan(start, t - start);
    predictions[t] = ForecastOne(forecaster, history);
  }
  return predictions;
}

// The original ForecasterPolicy::TargetUnits: batch Forecast() every epoch.
class ForecasterPolicy final : public ScalingPolicy {
 public:
  ForecasterPolicy(std::unique_ptr<Forecaster> forecaster, double margin = 1.0,
                   std::size_t history_len = kDefaultHistoryMinutes,
                   bool reactive_floor = false)
      : forecaster_(std::move(forecaster)), margin_(margin),
        history_len_(history_len), reactive_floor_(reactive_floor),
        name_(std::string("legacy_policy_") + std::string(forecaster_->name())) {}

  std::string_view name() const override { return name_; }

  double TargetUnits(std::span<const double> demand_history) override {
    if (demand_history.empty()) {
      return 0.0;
    }
    const std::size_t window =
        std::max(history_len_, forecaster_->preferred_history());
    const std::size_t start =
        demand_history.size() > window ? demand_history.size() - window : 0;
    const double predicted = ForecastOne(*forecaster_, demand_history.subspan(start));
    const double target = predicted * margin_;
    if (reactive_floor_) {
      return std::max(target, demand_history.back());
    }
    return target;
  }

  std::unique_ptr<ScalingPolicy> Clone() const override {
    return std::make_unique<ForecasterPolicy>(forecaster_->Clone(), margin_,
                                              history_len_, reactive_floor_);
  }

 private:
  std::unique_ptr<Forecaster> forecaster_;
  double margin_;
  std::size_t history_len_;
  bool reactive_floor_;
  std::string name_;
};

}  // namespace legacy

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct Args {
  std::size_t apps = 24;
  std::size_t days = 3;
  bool smoke = false;
  std::string json_path;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
      args.apps = 4;
      args.days = 1;
    } else if (arg.rfind("--apps=", 0) == 0) {
      args.apps = static_cast<std::size_t>(std::stoul(arg.substr(7)));
    } else if (arg.rfind("--days=", 0) == 0) {
      args.days = static_cast<std::size_t>(std::stoul(arg.substr(7)));
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    }
  }
  return args;
}

struct SweepEntry {
  const char* name;
  std::unique_ptr<Forecaster> prototype;
  // Forecaster driven through the reference batch loop. Usually a clone of
  // `prototype`; the fft row instead runs the verbatim pre-overhaul spectral
  // stack (bench/legacy_spectral.h) so the row measures the whole spectral
  // engine change, not just batch-vs-incremental bookkeeping.
  std::unique_ptr<Forecaster> reference;
  // Part of the headline speedup gate (AR/smoothing from the incremental-
  // protocol PR, FFT from the spectral-engine PR); Markov is reported but
  // not gated.
  bool gated;
  // True when the incremental path must be bit-identical to batch.
  bool bit_exact;
  // FFT only: skip parity on epochs governed by a refit whose harmonic
  // selection is ambiguous (see AmbiguousFftEpochs).
  bool spectral_ambiguity_skip = false;
};

struct SweepResult {
  std::string name;
  double reference_seconds = 0.0;
  double optimized_seconds = 0.0;
  double speedup = 0.0;
  double parity_max_rel = 0.0;
  bool parity_ok = true;
  bool gated = false;
  std::size_t ambiguous_epochs = 0;
};

// Scale-relative difference: |a - b| / max(1, |a|, |b|).
double RelDiff(double a, double b) {
  return std::fabs(a - b) / std::max({1.0, std::fabs(a), std::fabs(b)});
}

// Epochs whose governing FFT refit has an ambiguous harmonic selection:
// the gap between the last selected and first excluded amplitude is within
// 1e-9 of the spectrum scale (the engine's own near-tie predicate, see
// DESIGN.md §9). On such windows — impulse-like series whose spectra are
// mathematically flat — the pre-overhaul std::sort and the overhauled
// selection both order tied bins by their own rounding noise, so the two
// stacks legitimately pick different (equally valid) harmonic sets and
// their forecasts genuinely differ. Parity is asserted on every other
// epoch; ambiguous ones are counted and reported. The refit schedule below
// mirrors FftForecaster's staleness predicate exactly, so the mask lines
// up with both the legacy and the optimized run.
std::vector<char> AmbiguousFftEpochs(std::span<const double> series,
                                     std::size_t window, std::size_t harmonics,
                                     std::size_t refit_interval) {
  std::vector<char> ambiguous(series.size(), 0);
  std::vector<std::complex<double>> spectrum;
  std::vector<Harmonic> model;
  std::size_t cached_length = 0;
  std::size_t calls_since_fit = 0;
  bool have_model = false;
  bool model_ambiguous = false;
  for (std::size_t t = 0; t < series.size(); ++t) {
    const std::size_t size = std::min(t, window);
    if (size < 8) {
      continue;  // Both paths clamp to the last value — identical.
    }
    const bool aligned =
        size == cached_length + calls_since_fit || size == cached_length;
    if (!have_model || calls_since_fit >= refit_interval || !aligned) {
      const std::span<const double> fit = series.subspan(t - size, size);
      RealSpectrumInto(fit, &spectrum);
      const double excluded =
          SelectTopHarmonics(spectrum, size, harmonics, &model);
      model_ambiguous =
          excluded >= 0.0 && !model.empty() &&
          model.back().amplitude - excluded <=
              1e-9 * std::max(1.0, model.front().amplitude);
      have_model = true;
      cached_length = size;
      calls_since_fit = 0;
    }
    ++calls_since_fit;
    if (model_ambiguous) {
      ambiguous[t] = 1;
    }
  }
  return ambiguous;
}

}  // namespace
}  // namespace femux

int main(int argc, char** argv) {
  using namespace femux;
  const Args args = ParseArgs(argc, argv);
  constexpr double kParityBound = 1e-9;
  constexpr std::size_t kHistoryLen = kDefaultHistoryMinutes;

  AzureGeneratorOptions gen;
  gen.num_apps = static_cast<int>(args.apps);
  gen.duration_days = static_cast<int>(args.days);
  gen.seed = 11;
  const Dataset dataset = GenerateAzureDataset(gen);

  std::vector<std::vector<double>> demands;
  demands.reserve(dataset.apps.size());
  std::size_t epochs = 0;
  for (const AppTrace& app : dataset.apps) {
    demands.push_back(DemandSeries(app, 60.0));
    epochs += demands.back().size();
  }

  std::vector<SweepEntry> sweep;
  sweep.push_back({"ar", std::make_unique<ArForecaster>(10, 5),
                   std::make_unique<ArForecaster>(10, 5), true, false});
  sweep.push_back({"exp_smoothing", std::make_unique<ExponentialSmoothingForecaster>(),
                   std::make_unique<ExponentialSmoothingForecaster>(), true, false});
  sweep.push_back({"holt", std::make_unique<HoltForecaster>(),
                   std::make_unique<HoltForecaster>(), true, false});
  sweep.push_back({"markov_chain", std::make_unique<MarkovChainForecaster>(4),
                   std::make_unique<MarkovChainForecaster>(4), false, false});
  sweep.push_back({"fft", std::make_unique<FftForecaster>(10, 5),
                   std::make_unique<legacy_spectral::FftForecaster>(10, 5), true,
                   false, /*spectral_ambiguity_skip=*/true});

  std::printf("serve hot-path bench: %zu apps x %zu days (%zu epoch-forecasts "
              "per forecaster)\n",
              dataset.apps.size(), args.days, epochs);

  // --- Rolling sweep: reference batch loop vs incremental protocol, per
  // forecaster, same series, parity-checked epoch by epoch.
  std::vector<SweepResult> results;
  double gate_reference = 0.0;
  double gate_optimized = 0.0;
  bool parity_ok = true;
  for (const SweepEntry& entry : sweep) {
    SweepResult r;
    r.name = entry.name;
    r.gated = entry.gated;

    std::vector<std::vector<double>> reference(demands.size());
    {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t a = 0; a < demands.size(); ++a) {
        const std::unique_ptr<Forecaster> forecaster = entry.reference->Clone();
        reference[a] = legacy::RollingForecast(*forecaster, demands[a], kHistoryLen,
                                               /*warmup=*/0);
      }
      r.reference_seconds = Seconds(start);
    }

    std::vector<std::vector<double>> optimized(demands.size());
    {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t a = 0; a < demands.size(); ++a) {
        const std::unique_ptr<Forecaster> forecaster = entry.prototype->Clone();
        optimized[a] = RollingForecast(*forecaster, demands[a], kHistoryLen,
                                       /*warmup=*/0);
      }
      r.optimized_seconds = Seconds(start);
    }

    for (std::size_t a = 0; a < demands.size(); ++a) {
      std::vector<char> ambiguous;
      if (entry.spectral_ambiguity_skip) {
        const std::size_t window =
            std::max(kHistoryLen, entry.prototype->preferred_history());
        ambiguous = AmbiguousFftEpochs(demands[a], window,
                                       /*harmonics=*/10, /*refit_interval=*/5);
      }
      for (std::size_t t = 0; t < reference[a].size(); ++t) {
        if (!ambiguous.empty() && ambiguous[t]) {
          ++r.ambiguous_epochs;
          continue;
        }
        if (entry.bit_exact) {
          if (reference[a][t] != optimized[a][t]) {
            r.parity_ok = false;
          }
        }
        r.parity_max_rel =
            std::max(r.parity_max_rel, RelDiff(reference[a][t], optimized[a][t]));
      }
    }
    if (r.parity_max_rel > kParityBound) {
      r.parity_ok = false;
    }
    r.speedup = r.optimized_seconds > 0.0 ? r.reference_seconds / r.optimized_seconds
                                          : 0.0;
    if (entry.gated) {
      gate_reference += r.reference_seconds;
      gate_optimized += r.optimized_seconds;
    }
    parity_ok = parity_ok && r.parity_ok;
    std::printf("%-14s reference %7.3f s  incremental %7.3f s  speedup %6.2fx  "
                "parity %.3g %s%s",
                entry.name, r.reference_seconds, r.optimized_seconds, r.speedup,
                r.parity_max_rel,
                r.parity_ok ? "(PASS" : "(FAIL",
                entry.bit_exact ? ", bit-exact)" : ", <= 1e-9 rel)");
    if (r.ambiguous_epochs > 0) {
      std::printf("  [%zu tie-ambiguous epochs excluded]", r.ambiguous_epochs);
    }
    std::printf("\n");
    results.push_back(std::move(r));
  }
  const double gate_speedup =
      gate_optimized > 0.0 ? gate_reference / gate_optimized : 0.0;
  std::printf("gate       : ar+exp_smoothing+holt+fft sweep speedup %.2fx "
              "(target >= 5x; fft row alone >= 3x)\n", gate_speedup);

  // --- End-to-end: two fleet sweeps (the fig17-style usage pattern — the
  // same dataset simulated under several policies) through the legacy batch
  // policy vs the incremental policy.
  double e2e_reference = 0.0;
  double e2e_optimized = 0.0;
  double e2e_metric_rel = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    const FleetResult ref_ar = SimulateFleetUniform(
        dataset, legacy::ForecasterPolicy(std::make_unique<ArForecaster>(10, 5)),
        SimOptions{});
    const FleetResult ref_holt = SimulateFleetUniform(
        dataset, legacy::ForecasterPolicy(std::make_unique<HoltForecaster>()),
        SimOptions{});
    e2e_reference = Seconds(start);

    const auto opt_start = std::chrono::steady_clock::now();
    const FleetResult opt_ar = SimulateFleetUniform(
        dataset, ForecasterPolicy(std::make_unique<ArForecaster>(10, 5)),
        SimOptions{});
    const FleetResult opt_holt = SimulateFleetUniform(
        dataset, ForecasterPolicy(std::make_unique<HoltForecaster>()),
        SimOptions{});
    e2e_optimized = Seconds(opt_start);

    e2e_metric_rel = std::max(
        {RelDiff(ref_ar.total.cold_starts, opt_ar.total.cold_starts),
         RelDiff(ref_ar.total.wasted_gb_seconds, opt_ar.total.wasted_gb_seconds),
         RelDiff(ref_holt.total.cold_starts, opt_holt.total.cold_starts),
         RelDiff(ref_holt.total.wasted_gb_seconds, opt_holt.total.wasted_gb_seconds)});
  }
  // Fleet metrics pass through a ceil(), so 1e-9 prediction parity normally
  // lands them exactly equal; 1e-6 leaves headroom for a boundary flip.
  const bool e2e_ok = e2e_metric_rel <= 1e-6;
  const double e2e_speedup =
      e2e_optimized > 0.0 ? e2e_reference / e2e_optimized : 0.0;
  std::printf("end-to-end : reference %7.3f s  incremental %7.3f s  speedup "
              "%5.2fx  metric diff %.3g %s\n",
              e2e_reference, e2e_optimized, e2e_speedup, e2e_metric_rel,
              e2e_ok ? "(PASS <= 1e-6)" : "(FAIL > 1e-6)");

  bool json_ok = true;
  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path);
    out << "{\n"
        << "  \"bench\": \"serve_hot_path\",\n"
        << "  \"simd\": " << SimdInfoJson() << ",\n"
        << "  \"config\": {\"apps\": " << dataset.apps.size()
        << ", \"days\": " << args.days << ", \"epochs_per_forecaster\": " << epochs
        << ", \"history_len\": " << kHistoryLen
        << ", \"smoke\": " << (args.smoke ? "true" : "false") << "},\n"
        << "  \"forecasters\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SweepResult& r = results[i];
      out << "    \"" << r.name << "\": {\"reference_seconds\": "
          << r.reference_seconds
          << ", \"optimized_seconds\": " << r.optimized_seconds
          << ", \"speedup\": " << r.speedup
          << ", \"parity_max_rel\": " << r.parity_max_rel
          << ", \"gated\": " << (r.gated ? "true" : "false")
          << ", \"ambiguous_epochs\": " << r.ambiguous_epochs
          << ", \"parity_ok\": " << (r.parity_ok ? "true" : "false") << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    const FftCacheStats fft_stats = GetFftCacheStats();
    out << "  },\n"
        << "  \"gate_speedup\": " << gate_speedup << ",\n"
        << "  \"end_to_end\": {\"reference_seconds\": " << e2e_reference
        << ", \"optimized_seconds\": " << e2e_optimized
        << ", \"speedup\": " << e2e_speedup
        << ", \"metric_max_rel_diff\": " << e2e_metric_rel << "},\n"
        << "  \"fft_cache\": {\"hits\": " << fft_stats.hits
        << ", \"misses\": " << fft_stats.misses
        << ", \"evictions\": " << fft_stats.evictions
        << ", \"entries\": " << fft_stats.entries
        << ", \"table_bytes\": " << fft_stats.table_bytes << "},\n"
        << "  \"parity_ok\": " << (parity_ok && e2e_ok ? "true" : "false") << "\n"
        << "}\n";
    out.flush();
    json_ok = out.good();
    if (json_ok) {
      std::printf("wrote %s\n", args.json_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", args.json_path.c_str());
    }
  }

  return parity_ok && e2e_ok && json_ok ? 0 : 1;
}
