#include "src/forecast/forecaster.h"

#include <algorithm>
#include <cmath>

namespace femux {

const char* StreamErrorName(StreamError error) {
  switch (error) {
    case StreamError::kNone:
      return "none";
    case StreamError::kNonFiniteInput:
      return "non_finite_input";
    case StreamError::kCountRegressed:
      return "count_regressed";
  }
  return "unknown";
}

double ForecastOne(Forecaster& forecaster, std::span<const double> history) {
  const auto out = forecaster.Forecast(history, 1);
  return out.empty() ? 0.0 : out.front();
}

std::vector<double> RollingForecast(Forecaster& forecaster,
                                    std::span<const double> series,
                                    std::size_t history_len, std::size_t warmup) {
  std::vector<double> predictions(series.size(), 0.0);
  IncrementalSession session;
  for (std::size_t t = warmup; t < series.size(); ++t) {
    // The session windows the prefix to the last history_len samples (or
    // the forecaster's preferred history) and feeds one-sample deltas to
    // forecasters that maintain sliding-window state.
    const std::span<const double> prefix = series.first(t);
    predictions[t] = session.ForecastStreamed(forecaster, prefix, prefix.size(), history_len);
  }
  return predictions;
}

double IncrementalSession::ForecastStreamed(Forecaster& forecaster,
                                            std::span<const double> window,
                                            std::size_t total_observed,
                                            std::size_t window_hint) {
  const std::size_t window_len =
      std::max(window_hint, forecaster.preferred_history());
  const std::span<const double> windowed =
      window.size() > window_len ? window.last(window_len) : window;
  if (!forecaster.SupportsIncremental() || window.empty()) {
    seeded_ = false;
    return femux::ForecastOne(forecaster, windowed);
  }
  const bool bound_here =
      seeded_ && bound_ == &forecaster && window_ == window_len;
  // Same epoch as the previous call (or a SeedStreamed): the window state
  // already includes every observed sample. Return the cached prediction
  // when one exists — ForecastNext() may advance refit counters, so it must
  // run at most once per observed count. After a bare SeedStreamed no
  // prediction exists yet; forecast once and cache it.
  if (bound_here && total_observed == last_size_ && window.back() == last_back_) {
    if (!has_last_pred_) {
      last_pred_ = forecaster.ForecastNext();
      has_last_pred_ = true;
    }
    return last_pred_;
  }
  // The previous epoch's newest sample must be the window's second-newest
  // now; otherwise the caller switched series and the session re-seeds.
  const bool contiguous =
      bound_here && total_observed == last_size_ + 1 &&
      (last_size_ == 0 ||
       (window.size() >= 2 && window[window.size() - 2] == last_back_));
  if (contiguous) {
    forecaster.ObserveAppend(window.back());
  } else {
    forecaster.BeginWindow(windowed, window_len);
    bound_ = &forecaster;
    window_ = window_len;
    seeded_ = true;
  }
  last_size_ = total_observed;
  last_back_ = window.back();
  last_pred_ = forecaster.ForecastNext();
  has_last_pred_ = true;
  return last_pred_;
}

void IncrementalSession::SeedStreamed(Forecaster& forecaster,
                                      std::span<const double> window,
                                      std::size_t total_observed,
                                      std::size_t window_hint) {
  if (!forecaster.SupportsIncremental() || window.empty()) {
    seeded_ = false;
    return;
  }
  const std::size_t window_len =
      std::max(window_hint, forecaster.preferred_history());
  const std::span<const double> windowed =
      window.size() > window_len ? window.last(window_len) : window;
  forecaster.BeginWindow(windowed, window_len);
  bound_ = &forecaster;
  window_ = window_len;
  seeded_ = true;
  last_size_ = total_observed;
  last_back_ = window.back();
  has_last_pred_ = false;  // The next ForecastStreamed forecasts once.
}

namespace {

bool AllFinite(std::span<const double> window) {
  for (double v : window) {
    if (!std::isfinite(v)) {
      return false;
    }
  }
  return true;
}

}  // namespace

StreamedForecast IncrementalSession::ForecastStreamedChecked(
    Forecaster& forecaster, std::span<const double> window,
    std::size_t total_observed, std::size_t window_hint) {
  StreamedForecast out;
  if (!AllFinite(window)) {
    out.error = StreamError::kNonFiniteInput;
    return out;
  }
  const std::size_t window_len =
      std::max(window_hint, forecaster.preferred_history());
  // "Time went backwards" is only meaningful for the stream this session is
  // already bound to; a different forecaster or window configuration is a
  // fresh stream and re-seeds like the unchecked path.
  if (seeded_ && bound_ == &forecaster && window_ == window_len &&
      total_observed < last_size_) {
    out.error = StreamError::kCountRegressed;
    return out;
  }
  out.value = ForecastStreamed(forecaster, window, total_observed, window_hint);
  return out;
}

double ClampPrediction(double value) {
  // Guard against NaN propagating out of ill-conditioned fits.
  if (!(value > 0.0)) {
    return 0.0;
  }
  return std::min(value, 1e9);
}

}  // namespace femux
