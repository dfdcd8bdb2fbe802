#include "src/core/femux.h"

#include <algorithm>
#include <cstddef>

namespace femux {

FemuxPolicy::FemuxPolicy(std::shared_ptr<const FemuxModel> model,
                         double mean_execution_ms, double margin)
    : model_(std::move(model)),
      extractor_(model_->features, model_->feature_mode),
      mean_execution_ms_(mean_execution_ms), margin_(margin) {
  current_index_ = model_->default_forecaster;
  forecaster_ = model_->MakeForecaster(current_index_);
  if (!model_->margins.empty()) {
    selected_margin_ =
        model_->margins[static_cast<std::size_t>(model_->default_margin)];
  }
}

void FemuxPolicy::CompleteBlock(std::span<const double> demand_history) {
  std::vector<double> raw;
  if (model_->feature_mode == FeatureMode::kSketch) {
    FeatureExtractor::Workspace workspace;
    extractor_.ExtractSketchInto(block_sketch_, mean_execution_ms_, &workspace);
    raw = std::move(workspace.out);
    block_sketch_.Reset();
  } else {
    raw = extractor_.Extract(
        demand_history.last(std::min(demand_history.size(), model_->block_minutes)),
        mean_execution_ms_);
  }
  block_samples_ = 0;
  const FemuxModel::Selection selected = model_->Select(raw);
  ++blocks_per_forecaster_[model_->forecaster_names[static_cast<std::size_t>(
      selected.forecaster)]];
  if (selected.forecaster != current_index_) {
    current_index_ = selected.forecaster;
    // Learned forecasters come pre-loaded with their cluster's trained
    // state (no-op for the closed-form set).
    forecaster_ = model_->MakeForecasterForCluster(selected.forecaster,
                                                   selected.cluster);
    ++switch_count_;
    // Block-boundary warm handoff: seed the fresh forecaster's sliding
    // window from the history, so it starts with the same window a cold
    // batch re-seed would have read — but pays the O(window) cost here at
    // the block boundary, once, instead of leaving the session invalid.
    // (The fresh forecaster may reuse the old one's address, so the session
    // must not trust pointer identity for stream continuity; SeedStreamed
    // rebinds it explicitly.)
    session_.SeedStreamed(*forecaster_, demand_history, demand_history.size(),
                          kDefaultHistoryMinutes);
  }
  selected_margin_ = selected.margin;
}

double FemuxPolicy::TargetUnits(std::span<const double> demand_history) {
  if (demand_history.empty()) {
    return 0.0;
  }
  // The simulator advances one epoch per call, so the newest history entry
  // is exactly one unseen sample.
  if (model_->feature_mode == FeatureMode::kSketch) {
    block_sketch_.Add(demand_history.back());
  }
  if (++block_samples_ >= model_->block_minutes) {
    CompleteBlock(demand_history);
  }
  return session_.ForecastStreamed(*forecaster_, demand_history,
                                   demand_history.size(),
                                   kDefaultHistoryMinutes) *
         margin_ * selected_margin_;
}

std::unique_ptr<ScalingPolicy> FemuxPolicy::Clone() const {
  return std::make_unique<FemuxPolicy>(model_, mean_execution_ms_, margin_);
}

int FemuxPolicy::distinct_forecasters_used() const {
  return static_cast<int>(blocks_per_forecaster_.size());
}

}  // namespace femux
