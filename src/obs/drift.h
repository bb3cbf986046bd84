#ifndef DIDO_OBS_DRIFT_H_
#define DIDO_OBS_DRIFT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sim/device_spec.h"

namespace dido {
namespace obs {

class OnlineCalibrator;

// One retained prediction-vs-observation residual: stage `stage` of a batch
// ran on `device`, the cost model said `predicted_us`, the executor measured
// `observed_us`.
struct StageResidual {
  size_t stage = 0;
  Device device = Device::kCpu;
  double predicted_us = 0.0;
  double observed_us = 0.0;
};

// Cost-model drift telemetry: the paper's Fig. 9 metric (prediction error of
// the APU-aware cost model) computed continuously, per executed batch, and
// exported as rolling gauges under the dido_sim_costmodel_* prefix — so
// every re-planning decision the adaption controller takes is auditable
// against how well the model was actually predicting at that moment.
//
// For each batch the caller supplies the cost model's predicted per-stage
// times, the observed per-stage times (both simulated-APU microseconds) and
// the device each stage ran on.  Two error figures are maintained over a
// rolling window:
//
//  * t_max error  — |T_max_pred - T_max_obs| / T_max_obs, the paper's
//                   headline prediction-error metric (throughput is
//                   N / T_max, so this bounds the throughput error too);
//  * stage error  — mean over stages of |pred_i - obs_i| / obs_i, which
//                   localizes *where* the model drifts.
//
// The tracker also
//  * retains the raw per-stage residual samples (bounded ring, exported via
//    ResidualsSnapshot()) instead of only the two rolling means,
//  * records each stage's absolute relative error into a per-(stage, device)
//    histogram "dido_sim_costmodel_stage_abs_rel_error_pct{stage=..,
//    device=..}" (percent, so the log-spaced buckets resolve the 0.5%..100%
//    range), and
//  * feeds the samples — and the batch boundary — to an attached
//    OnlineCalibrator, closing the observability loop (DESIGN.md §12).
//
// Every sample the tracker drops (empty/mismatched vectors, all-zero sums,
// non-positive stage observations) increments
// "dido_sim_costmodel_skipped_samples_total" instead of vanishing silently.
class CostDriftTracker {
 public:
  struct Options {
    size_t window = 64;  // batches in the rolling mean
    // Raw residual samples retained for export (ring buffer).
    size_t residual_capacity = 512;
    // When set, every stage sample is forwarded with ObserveStage() and
    // every observed batch ends with EndBatch() — the tracker is the
    // calibrator's only feed.  Must outlive the tracker.
    OnlineCalibrator* calibrator = nullptr;
  };

  CostDriftTracker(MetricsRegistry* registry, const Options& options);
  CostDriftTracker(const CostDriftTracker&) = delete;
  CostDriftTracker& operator=(const CostDriftTracker&) = delete;

  // Records one executed batch.  The three vectors must be the same length
  // (stages of the batch's configuration); `stage_devices` names the device
  // each stage ran on.  Empty, mismatched or all-zero batches are skipped
  // (counted in "dido_sim_costmodel_skipped_samples_total").
  void ObserveBatch(const std::vector<double>& predicted_stage_us,
                    const std::vector<double>& observed_stage_us,
                    const std::vector<Device>& stage_devices);

  // Rolling means over the window (also exported as gauges
  // "dido_sim_costmodel_tmax_abs_rel_error" / "..._stage_abs_rel_error").
  double RollingTmaxError() const;
  double RollingStageError() const;
  uint64_t batches() const;

  // Copy of the retained raw residuals, oldest first (at most
  // Options::residual_capacity entries).
  std::vector<StageResidual> ResidualsSnapshot() const;

  // Total samples/batches dropped instead of observed.
  uint64_t skipped_samples() const { return skipped_samples_counter_->Value(); }

 private:
  void PushWindowed(std::deque<double>* window, double value)
      DIDO_REQUIRES(mu_);
  // Find-or-create the residual histogram of one (stage, device) lane.
  AtomicHistogram* ResidualHistogram(size_t stage, Device device)
      DIDO_EXCLUDES(mu_);

  const Options options_;
  MetricsRegistry* const registry_;
  // Metric handles: resolved once in the constructor, immutable afterwards
  // (the pointees are internally thread-safe).
  // dido-analyze: begin-allow(lock): set once at construction, then read-only
  Counter* batches_counter_;
  Counter* skipped_samples_counter_;
  Gauge* tmax_error_gauge_;
  Gauge* stage_error_gauge_;
  Gauge* last_predicted_tmax_;
  Gauge* last_observed_tmax_;
  // dido-analyze: end-allow(lock)

  mutable Mutex mu_;
  std::deque<double> tmax_errors_ DIDO_GUARDED_BY(mu_);
  std::deque<double> stage_errors_ DIDO_GUARDED_BY(mu_);
  std::deque<StageResidual> residuals_ DIDO_GUARDED_BY(mu_);
  // Lazily resolved per-(stage, device) histogram handles.
  std::map<std::pair<size_t, Device>, AtomicHistogram*> residual_hists_
      DIDO_GUARDED_BY(mu_);
  uint64_t observed_batches_ DIDO_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace dido

#endif  // DIDO_OBS_DRIFT_H_
