// femux: the paper's pipeline end to end. Set-up trains FeMux with
// TrainFemux on the train split of an Azure-like dataset; the measured part
// replays held-out apps of the same generator through
// SimulateFleetStreamUniform with FemuxPolicy on the trained model. Batch
// forecasting, block features and K-means run in training; incremental
// per-decision forecasting and block-boundary classification run in replay,
// so a change that helps one and hurts the other shows here.
#include <memory>
#include <sstream>

#include "perfbench/stream_jobs.h"
#include "perfbench/workloads.h"
#include "src/core/features.h"
#include "src/core/rum.h"
#include "src/core/serialize.h"
#include "src/core/trainer.h"
#include "src/sim/fleet.h"
#include "src/sim/parallel.h"
#include "src/stats/fft.h"
#include "src/trace/azure_generator.h"
#include "src/trace/split.h"

namespace perfbench {
namespace {

constexpr int kTrainApps = 48;  // Dataset size; training uses its train split.
// The training data is fixed, like a deployed model: which forecasters the
// clusters pick changes per-decision cost by 10x, so a seed-drawn model
// would make replay speed a property of the seed. The seed draws the
// held-out apps.
constexpr std::uint64_t kTrainSeed = 7;
constexpr int kDays = 4;
constexpr std::size_t kJobApps = 32;
constexpr std::size_t kJobSlices = 32;  // Held-out apps = kJobApps * kJobSlices.
constexpr std::size_t kSetups = 3;
constexpr std::size_t kSerialChecks = 8;

femux::TrainerOptions TrainerOptionsFor(std::size_t threads) {
  femux::TrainerOptions options;
  options.clusters = 10;
  options.refit_interval = 20;
  options.threads = threads;
  return options;
}

std::vector<int> TrainIndices(const femux::Dataset& dataset, std::uint64_t seed) {
  const femux::DatasetSplit split = femux::SplitDataset(dataset, seed);
  std::vector<int> indices = split.train;
  indices.insert(indices.end(), split.validation.begin(), split.validation.end());
  return indices;
}

std::string ModelText(const femux::FemuxModel& model) {
  std::ostringstream out;
  femux::SaveModel(model, out);
  return out.str();
}

// Thread-seconds per training stage, measured by calling each stage's
// public function over the training apps in the order TrainFemux runs
// them. TrainResult::feature_extraction_seconds is never assigned by the
// trainer, so features are timed here, from outside.
void ReportTrainingStages(const femux::Dataset& dataset, const std::vector<int>& indices,
                          const femux::TrainResult& trained,
                          const femux::TrainerOptions& options, Report* report) {
  const femux::FemuxModel& model = trained.model;
  const femux::FeatureExtractor extractor(model.features, model.feature_mode);
  const femux::Rum rum = femux::Rum::Default();
  std::mutex mu;
  double plan_s = 0.0;
  double features_s = 0.0;
  double block_rum_s = 0.0;
  femux::ParallelFor(indices.size(), [&](std::size_t a) {
    const femux::AppTrace& app = dataset.apps[static_cast<std::size_t>(indices[a])];
    femux::SimOptions sim = options.sim;
    sim.min_scale = 0;
    sim.memory_gb_per_unit = app.consumed_memory_mb > 0.0 ? app.consumed_memory_mb / 1024.0
                                                          : sim.memory_gb_per_unit;
    const std::vector<double> demand = femux::DemandSeries(app, sim.epoch_seconds);
    const std::vector<double> arrivals = femux::ArrivalSeries(app, sim.epoch_seconds);

    auto start = Clock::now();
    const std::vector<std::vector<double>> plans =
        femux::SimulateForecasts(model.forecaster_names, demand, options.refit_interval);
    const double plan = SecondsSince(start);

    start = Clock::now();
    femux::ExtractBlockFeatures(extractor, demand, options.block_minutes, 0.0, 1);
    const double features = SecondsSince(start);

    start = Clock::now();
    std::vector<double> scaled(options.block_minutes);
    const std::size_t blocks = femux::BlockCount(demand.size(), options.block_minutes);
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto demand_block = femux::BlockSlice(demand, b, options.block_minutes);
      const auto arrivals_block = femux::BlockSlice(arrivals, b, options.block_minutes);
      for (const std::vector<double>& full : plans) {
        const auto plan_block = femux::BlockSlice(full, b, options.block_minutes);
        for (const double margin : model.margins) {
          for (std::size_t i = 0; i < plan_block.size(); ++i) {
            scaled[i] = plan_block[i] * margin;
          }
          femux::BlockRum(rum, demand_block, arrivals_block, scaled, sim);
        }
      }
    }
    const double block_rum = SecondsSince(start);
    std::lock_guard<std::mutex> lock(mu);
    plan_s += plan;
    features_s += features;
    block_rum_s += block_rum;
  });

  femux::FemuxModel refit = model;
  auto start = Clock::now();
  femux::FitFromTable(trained.table, options, &refit, nullptr);
  report->Set("core.fit_s", SecondsSince(start));
  start = Clock::now();
  femux::TrainClusterLearnedState(trained.table, dataset, indices, options, &refit);
  report->Set("core.learned_s", SecondsSince(start));
  report->Set("forecast.plan_s", plan_s);
  report->Set("core.features_s", features_s);
  report->Set("sim.block_rum_s", block_rum_s);
}

}  // namespace

void RunFemux(const RunArgs& args, Report* report) {
  const femux::TrainerOptions trainer = TrainerOptionsFor(args.threads);
  femux::AzureGeneratorOptions generator;
  generator.num_apps = kTrainApps;
  generator.duration_days = kDays;
  generator.seed = kTrainSeed;

  // Set-up: generate the training dataset and train, several times; every
  // training must give the same model.
  std::vector<double> setups;
  std::vector<double> trains;
  femux::Dataset dataset;
  std::vector<int> indices;
  femux::TrainResult trained;
  std::string first_model;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    dataset = femux::GenerateAzureDataset(generator);
    indices = TrainIndices(dataset, kTrainSeed);
    const auto train_start = Clock::now();
    trained = femux::TrainFemux(dataset, indices, femux::Rum::Default(), trainer);
    trains.push_back(SecondsSince(train_start));
    setups.push_back(SecondsSince(start));
    const std::string text = ModelText(trained.model);
    if (i == 0) {
      first_model = text;
    } else {
      report->Check(text == first_model, "training " + std::to_string(i) +
                                             " gave a different model");
    }
  }
  report->Set("setup_s", Median(setups));
  report->Set("core.train_s", Median(trains));
  const auto model = std::make_shared<const femux::FemuxModel>(trained.model);
  report->Check(model->forecaster_names.size() == FemuxTimes::kForecasters,
                "model forecaster set differs from the default set");
  for (std::size_t f = 0; f < model->forecaster_names.size() && f < FemuxTimes::kForecasters;
       ++f) {
    report->Check(model->forecaster_names[f] == kFemuxForecasters[f],
                  "model forecaster " + std::to_string(f) + " is " +
                      model->forecaster_names[f]);
  }

  // Held-out apps: drawn from the seed, at indices past the training
  // dataset so they are never trained on even when the seeds coincide.
  femux::AzureGeneratorOptions held_out = generator;
  held_out.seed = args.seed;
  const JobPlan plan{kJobApps, kJobSlices, (kTrainApps + kJobApps - 1) / kJobApps};
  held_out.num_apps = static_cast<int>((plan.first_slice + kJobSlices) * kJobApps);
  const femux::AzureTraceSource source(held_out);

  femux::FleetStreamOptions options;
  options.threads = args.threads;
  options.chunk_apps = 1;
  const femux::FemuxPolicy policy(model);

  const femux::FftCacheStats fft_before = femux::GetFftCacheStats();
  std::map<std::size_t, femux::SimMetrics> firsts;
  if (!args.trace) {
    JobLoop loop;
    RunJobs(source, plan, policy, options, args.seconds, kSerialChecks, &firsts, report,
            &loop);
    ReportJobLatency(loop, report);
  } else {
    const TimedSource timed_source(source);
    auto times = std::make_shared<FemuxTimes>();
    const TimedFemuxPolicy timed_policy(model, times);
    JobLoop untraced;
    JobLoop traced;
    RunPairedJobs(source, timed_source, plan, policy, timed_policy, options, args.seconds,
                  kSerialChecks, &firsts, report, &untraced, &traced);

    double policy_s = 1e-9 * static_cast<double>(times->boundary_ns);
    for (std::size_t f = 0; f < FemuxTimes::kForecasters; ++f) {
      const double calls = static_cast<double>(times->calls[f]);
      const std::string name = kFemuxForecasters[f];
      report->Set("forecast.decisions." + name, calls);
      report->Set("forecast.decision_us." + name,
                  calls > 0.0 ? 1e-3 * static_cast<double>(times->ns[f]) / calls : 0.0);
      policy_s += 1e-9 * static_cast<double>(times->ns[f]);
    }
    report->Set("core.block_switch_us",
                times->boundary_calls > 0 ? 1e-3 * static_cast<double>(times->boundary_ns) /
                                                static_cast<double>(times->boundary_calls)
                                          : 0.0);
    report->Set("core.switches", static_cast<double>(times->switches));
    report->Detail("block_boundaries", static_cast<double>(times->boundary_calls));
    ReportPairedJobs(untraced, traced, timed_source, policy_s, args.threads, report);
    ReportTrainingStages(dataset, indices, trained, trainer, report);
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
