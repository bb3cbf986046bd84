#include "obs/recalibrate.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dido {
namespace obs {

namespace {

// Trace lane for recalibration events: above the pipeline stage lanes,
// below the durability lane (99).
constexpr uint32_t kCalibrationTraceLane = 98;

// Below this many samples a device is left untouched by the fit.
constexpr size_t kMinSamples = 24;
// A fit commits only when some |ratio - 1| exceeds this.
constexpr double kHysteresis = 0.04;
// Largest relative scale change of one commit.
constexpr double kMaxStep = 0.25;
// Lower bound of the fitted scales (Options::max_scale is the upper one).
constexpr double kMinScale = 0.25;
// Batches ignored after a commit.
constexpr uint64_t kQuietDwellBatches = 12;
// A committed relative scale change beyond this requests a replan.
constexpr double kReplanThreshold = 0.10;
static_assert(kMaxStep > 0.0 && kMinScale > 0.0);

double MeanAbsRelError(const std::deque<double>& predicted,
                       const std::deque<double>& observed, double ratio) {
  if (predicted.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    const double p = predicted[i] * ratio;
    sum += std::fabs(p - observed[i]) / std::max(p, 1e-9);
  }
  return sum / static_cast<double>(predicted.size());
}

}  // namespace

OnlineCalibrator::OnlineCalibrator(const Options& options)
    : options_(options) {
  DIDO_CHECK_GT(options_.window, 0u);
  DIDO_CHECK_GT(options_.max_scale, kMinScale);
}

void OnlineCalibrator::AttachObservability(MetricsRegistry* metrics,
                                           TraceCollector* trace) {
  trace_ = trace;
  if (trace_ != nullptr) trace_->SetThreadName(kCalibrationTraceLane, "calibrator");
  if (metrics == nullptr) return;
  commits_counter_ = metrics->GetCounter(
      "dido_recal_commits_total",
      "Committed calibration generations (re-fits applied)");
  held_fits_counter_ = metrics->GetCounter(
      "dido_recal_held_fits_total",
      "Fit attempts held back by the hysteresis band (no-flap)");
  clamped_steps_counter_ = metrics->GetCounter(
      "dido_recal_clamped_steps_total",
      "Commits whose scale step hit the per-commit clamp or bounds");
  skipped_samples_counter_ = metrics->GetCounter(
      "dido_recal_skipped_samples_total",
      "Residual samples dropped (non-positive or inside the quiet dwell)");
  generation_gauge_ = metrics->GetGauge(
      "dido_recal_generation",
      "Calibration generation currently applied to the cost model");
  cpu_scale_gauge_ = metrics->GetGauge(
      MetricName("dido_recal_scale", {{"device", "CPU"}}),
      "Fitted per-device time-scale overlay (1.0 = spec calibration)");
  gpu_scale_gauge_ = metrics->GetGauge(
      MetricName("dido_recal_scale", {{"device", "GPU"}}),
      "Fitted per-device time-scale overlay (1.0 = spec calibration)");
  prefit_error_gauge_ = metrics->GetGauge(
      "dido_recal_prefit_abs_rel_error",
      "Mean |observed - predicted| / predicted over the fit window, under "
      "the overlay the predictions were made with");
  postfit_error_gauge_ = metrics->GetGauge(
      "dido_recal_postfit_abs_rel_error",
      "Same residual re-evaluated under the freshly fitted ratios");
  MutexLock lock(mu_);
  PublishOverlay();
}

void OnlineCalibrator::ObserveStage(Device device, double predicted_us,
                                    double observed_us) {
  if (!(predicted_us > 0.0) || !(observed_us > 0.0)) {
    if (skipped_samples_counter_ != nullptr) skipped_samples_counter_->Add();
    return;
  }
  MutexLock lock(mu_);
  if (dwell_remaining_ > 0) {
    // Samples inside the dwell were predicted under the just-replaced
    // overlay; folding them in would immediately re-trigger the fit.
    if (skipped_samples_counter_ != nullptr) skipped_samples_counter_->Add();
    return;
  }
  DeviceWindow& window = device == Device::kCpu ? cpu_ : gpu_;
  window.predicted.push_back(predicted_us);
  window.observed.push_back(observed_us);
  while (window.predicted.size() > options_.window) {
    window.predicted.pop_front();
    window.observed.pop_front();
  }
}

double OnlineCalibrator::FitRatio(const DeviceWindow& window) const {
  if (window.predicted.size() < kMinSamples) return 1.0;
  double pp = 0.0;
  double po = 0.0;
  for (size_t i = 0; i < window.predicted.size(); ++i) {
    pp += window.predicted[i] * window.predicted[i];
    po += window.predicted[i] * window.observed[i];
  }
  if (!(pp > 0.0)) return 1.0;
  return po / pp;
}

void OnlineCalibrator::PublishOverlay() {
  if (generation_gauge_ == nullptr) return;
  generation_gauge_->Set(static_cast<double>(overlay_.generation));
  cpu_scale_gauge_->Set(overlay_.cpu_scale);
  gpu_scale_gauge_->Set(overlay_.gpu_scale);
}

bool OnlineCalibrator::EndBatch() {
  CalibrationOverlay committed;
  double cpu_ratio = 1.0;
  double gpu_ratio = 1.0;
  {
    MutexLock lock(mu_);
    if (dwell_remaining_ > 0) {
      dwell_remaining_ -= 1;
      return false;
    }
    if (cpu_.predicted.size() < options_.window &&
        gpu_.predicted.size() < options_.window) {
      return false;  // neither window full yet
    }

    cpu_ratio = FitRatio(cpu_);
    gpu_ratio = FitRatio(gpu_);
    const double prefit =
        (MeanAbsRelError(cpu_.predicted, cpu_.observed, 1.0) *
             static_cast<double>(cpu_.predicted.size()) +
         MeanAbsRelError(gpu_.predicted, gpu_.observed, 1.0) *
             static_cast<double>(gpu_.predicted.size())) /
        static_cast<double>(
            std::max<size_t>(1, cpu_.predicted.size() + gpu_.predicted.size()));
    const double postfit =
        (MeanAbsRelError(cpu_.predicted, cpu_.observed, cpu_ratio) *
             static_cast<double>(cpu_.predicted.size()) +
         MeanAbsRelError(gpu_.predicted, gpu_.observed, gpu_ratio) *
             static_cast<double>(gpu_.predicted.size())) /
        static_cast<double>(
            std::max<size_t>(1, cpu_.predicted.size() + gpu_.predicted.size()));
    if (prefit_error_gauge_ != nullptr) {
      prefit_error_gauge_->Set(prefit);
      postfit_error_gauge_->Set(postfit);
    }

    const double shift =
        std::max(std::fabs(cpu_ratio - 1.0), std::fabs(gpu_ratio - 1.0));
    if (shift <= kHysteresis) {
      if (held_fits_counter_ != nullptr) held_fits_counter_->Add();
      return false;
    }

    // Commit: step-clamp each ratio, apply on top of the current scales,
    // bound the result.
    bool clamped = false;
    auto step = [&](double old_scale, double ratio) {
      double r = std::clamp(ratio, 1.0 - kMaxStep, 1.0 + kMaxStep);
      if (r != ratio) clamped = true;
      double scale = std::clamp(old_scale * r, kMinScale, options_.max_scale);
      if (scale != old_scale * r) clamped = true;
      return scale;
    };
    const double new_cpu = step(overlay_.cpu_scale, cpu_ratio);
    const double new_gpu = step(overlay_.gpu_scale, gpu_ratio);
    const double relative_change =
        std::max(std::fabs(new_cpu / overlay_.cpu_scale - 1.0),
                 std::fabs(new_gpu / overlay_.gpu_scale - 1.0));
    overlay_.cpu_scale = new_cpu;
    overlay_.gpu_scale = new_gpu;
    overlay_.generation += 1;
    if (relative_change > kReplanThreshold) replan_requested_ = true;
    cpu_ = DeviceWindow();
    gpu_ = DeviceWindow();
    dwell_remaining_ = kQuietDwellBatches;
    PublishOverlay();
    if (commits_counter_ != nullptr) commits_counter_->Add();
    if (clamped && clamped_steps_counter_ != nullptr) {
      clamped_steps_counter_->Add();
    }
    committed = overlay_;
  }

  // Observable side effects outside the lock: the trace span and the commit
  // callback (which typically walks into CostModel::ApplyCalibration).
  if (trace_ != nullptr && trace_->enabled()) {
    TraceSpan span;
    span.name = "recalibrate";
    span.category = "calibration";
    span.ts_us = trace_->NowMicros();
    span.dur_us = 0;
    span.tid = kCalibrationTraceLane;
    span.args_json =
        "\"generation\":" + std::to_string(committed.generation) +
        ",\"cpu_scale\":" + std::to_string(committed.cpu_scale) +
        ",\"gpu_scale\":" + std::to_string(committed.gpu_scale) +
        ",\"cpu_ratio\":" + std::to_string(cpu_ratio) +
        ",\"gpu_ratio\":" + std::to_string(gpu_ratio);
    trace_->AddSpan(std::move(span));
  }
  if (options_.on_commit) options_.on_commit(committed);
  return true;
}

CalibrationOverlay OnlineCalibrator::overlay() const {
  MutexLock lock(mu_);
  return overlay_;
}

bool OnlineCalibrator::TakeReplanRequest() {
  MutexLock lock(mu_);
  return std::exchange(replan_requested_, false);
}

}  // namespace obs
}  // namespace dido
