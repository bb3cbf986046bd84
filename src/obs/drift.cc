#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "obs/recalibrate.h"

namespace dido {
namespace obs {

namespace {

double Mean(const std::deque<double>& window) {
  if (window.empty()) return 0.0;
  return std::accumulate(window.begin(), window.end(), 0.0) /
         static_cast<double>(window.size());
}

}  // namespace

CostDriftTracker::CostDriftTracker(MetricsRegistry* registry,
                                   const Options& options)
    : options_(options), registry_(registry) {
  DIDO_CHECK(registry != nullptr);
  batches_counter_ = registry->GetCounter(
      "dido_sim_costmodel_batches_total",
      "batches with prediction-vs-observation drift samples");
  skipped_samples_counter_ = registry->GetCounter(
      "dido_sim_costmodel_skipped_samples_total",
      "drift samples dropped: empty/mismatched stage vectors, all-zero "
      "sums, or non-positive stage observations");
  tmax_error_gauge_ = registry->GetGauge(
      "dido_sim_costmodel_tmax_abs_rel_error",
      "rolling |T_max predicted - observed| / observed (paper Fig. 9)");
  stage_error_gauge_ = registry->GetGauge(
      "dido_sim_costmodel_stage_abs_rel_error",
      "rolling mean per-stage |predicted - observed| / observed");
  last_predicted_tmax_ = registry->GetGauge(
      "dido_sim_costmodel_last_predicted_tmax_us",
      "cost-model predicted T_max of the most recent batch (us)");
  last_observed_tmax_ = registry->GetGauge(
      "dido_sim_costmodel_last_observed_tmax_us",
      "observed T_max of the most recent batch (us)");
}

void CostDriftTracker::PushWindowed(std::deque<double>* window, double value) {
  window->push_back(value);
  while (window->size() > options_.window) window->pop_front();
}

AtomicHistogram* CostDriftTracker::ResidualHistogram(size_t stage,
                                                     Device device) {
  {
    MutexLock lock(mu_);
    auto it = residual_hists_.find({stage, device});
    if (it != residual_hists_.end()) return it->second;
  }
  // Registry find-or-create is idempotent, so a racing resolution of the
  // same lane lands on the same histogram.
  AtomicHistogram* hist = registry_->GetHistogram(
      MetricName("dido_sim_costmodel_stage_abs_rel_error_pct",
                 {{"stage", std::to_string(stage)},
                  {"device", DeviceName(device)}}),
      "per-stage |predicted - observed| / observed, percent");
  MutexLock lock(mu_);
  residual_hists_[{stage, device}] = hist;
  return hist;
}

void CostDriftTracker::ObserveBatch(
    const std::vector<double>& predicted_stage_us,
    const std::vector<double>& observed_stage_us,
    const std::vector<Device>& stage_devices) {
  if (predicted_stage_us.empty() ||
      predicted_stage_us.size() != observed_stage_us.size() ||
      stage_devices.size() != predicted_stage_us.size()) {
    skipped_samples_counter_->Add(1);
    return;
  }
  const double observed_sum = std::accumulate(observed_stage_us.begin(),
                                              observed_stage_us.end(), 0.0);
  const double predicted_sum = std::accumulate(predicted_stage_us.begin(),
                                               predicted_stage_us.end(), 0.0);
  if (!(observed_sum > 0.0) || !(predicted_sum > 0.0)) {
    skipped_samples_counter_->Add(1);
    return;
  }

  double predicted_tmax = 0.0;
  double observed_tmax = 0.0;
  double stage_error_sum = 0.0;
  size_t stages_counted = 0;
  for (size_t i = 0; i < predicted_stage_us.size(); ++i) {
    const double predicted = predicted_stage_us[i];
    const double observed = observed_stage_us[i];
    predicted_tmax = std::max(predicted_tmax, predicted);
    observed_tmax = std::max(observed_tmax, observed);
    if (observed > 0.0 && predicted > 0.0) {
      const double rel = std::fabs(predicted - observed) / observed;
      stage_error_sum += rel;
      stages_counted += 1;
      ResidualHistogram(i, stage_devices[i])->Record(rel * 100.0);
      if (options_.calibrator != nullptr) {
        options_.calibrator->ObserveStage(stage_devices[i], predicted,
                                          observed);
      }
    } else {
      skipped_samples_counter_->Add(1);
    }
  }
  if (!(observed_tmax > 0.0)) {
    skipped_samples_counter_->Add(1);
    return;
  }
  const double tmax_error =
      std::fabs(predicted_tmax - observed_tmax) / observed_tmax;
  const double stage_error =
      stages_counted > 0
          ? stage_error_sum / static_cast<double>(stages_counted)
          : 0.0;

  double rolling_tmax;
  double rolling_stage;
  {
    MutexLock lock(mu_);
    PushWindowed(&tmax_errors_, tmax_error);
    PushWindowed(&stage_errors_, stage_error);
    for (size_t i = 0; i < predicted_stage_us.size(); ++i) {
      StageResidual residual;
      residual.stage = i;
      residual.device = stage_devices[i];
      residual.predicted_us = predicted_stage_us[i];
      residual.observed_us = observed_stage_us[i];
      residuals_.push_back(residual);
    }
    while (residuals_.size() > options_.residual_capacity) {
      residuals_.pop_front();
    }
    observed_batches_ += 1;
    rolling_tmax = Mean(tmax_errors_);
    rolling_stage = Mean(stage_errors_);
  }

  batches_counter_->Add(1);
  tmax_error_gauge_->Set(rolling_tmax);
  stage_error_gauge_->Set(rolling_stage);
  last_predicted_tmax_->Set(predicted_tmax);
  last_observed_tmax_->Set(observed_tmax);

  // Batch boundary for the closed loop: the calibrator counts dwell and
  // attempts its fit here, after all of this batch's samples landed.
  if (options_.calibrator != nullptr) {
    options_.calibrator->EndBatch();
  }
}

double CostDriftTracker::RollingTmaxError() const {
  MutexLock lock(mu_);
  return Mean(tmax_errors_);
}

double CostDriftTracker::RollingStageError() const {
  MutexLock lock(mu_);
  return Mean(stage_errors_);
}

uint64_t CostDriftTracker::batches() const {
  MutexLock lock(mu_);
  return observed_batches_;
}

std::vector<StageResidual> CostDriftTracker::ResidualsSnapshot() const {
  MutexLock lock(mu_);
  return std::vector<StageResidual>(residuals_.begin(), residuals_.end());
}

}  // namespace obs
}  // namespace dido
