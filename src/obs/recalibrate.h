#ifndef DIDO_OBS_RECALIBRATE_H_
#define DIDO_OBS_RECALIBRATE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/device_spec.h"

namespace dido {
namespace obs {

class Counter;
class Gauge;
class MetricsRegistry;
class TraceCollector;

// The closed observability loop (DESIGN.md §12): consumes the per-(device,
// stage) residual samples CostDriftTracker measures on every executed batch
// and re-fits bounded per-device scale factors for the cost model's Eq. 1
// constants, so placement decisions follow *measured* device behaviour
// instead of a static calibration snapshot.
//
// Fit: for each device d, over a window of residual samples (p_i, o_i)
// (predicted and observed stage microseconds), the least-squares scalar
//   r_d = sum(p_i * o_i) / sum(p_i^2)
// minimizes sum (o_i - r * p_i)^2 — the single multiplier that best maps the
// current predictions onto the observations.  Because predictions already
// include the currently applied overlay, the new per-device scale is
// new_d = old_d * r_d: the loop converges iteratively even when stealing or
// interference couples the devices, since each committed correction shrinks
// the next window's residual ratio toward 1.
//
// Stability (calibration must never flap under the executor's per-batch
// noise):
//  * hysteresis  — a fit is committed only when some device's ratio moves
//                  more than 4% away from 1;
//  * step clamp  — one commit changes a scale by at most 25% relative (a
//                  3x drift is absorbed over several windows);
//  * bounds      — scales live in [0.25, max_scale] always;
//  * quiet dwell — after a commit, 12 batches are dropped: their
//                  predictions were made under the old overlay and would
//                  immediately re-trigger the fit.
// The fixed values are named constants in recalibrate.cc.
//
// Thread safety: ObserveStage/EndBatch/overlay()/TakeReplanRequest are safe
// from any thread (one mutex; the math is a handful of multiply-adds per
// commit).  The on_commit callback runs on the observing thread *after* the
// internal lock is released.
class OnlineCalibrator {
 public:
  struct Options {
    // Residual samples per device per fit attempt; fits are attempted at
    // batch granularity once a device's window is full.
    size_t window = 48;
    double max_scale = 4.0;  // upper bound of the fitted scales
    // Invoked (lock released) after every committed generation; the sim
    // path uses this to push the overlay into its CostModel.
    std::function<void(const CalibrationOverlay&)> on_commit;
  };

  explicit OnlineCalibrator(const Options& options);
  OnlineCalibrator(const OnlineCalibrator&) = delete;
  OnlineCalibrator& operator=(const OnlineCalibrator&) = delete;

  // Resolves the dido_recal_* metric handles and the trace sink.  Call once
  // during setup (before samples flow); either argument may be null.
  void AttachObservability(MetricsRegistry* metrics, TraceCollector* trace);

  // One residual sample: the cost model predicted `predicted_us` for a stage
  // that ran on `device` and was observed at `observed_us`.  Non-positive
  // samples are ignored (counted when metrics are attached).
  void ObserveStage(Device device, double predicted_us, double observed_us)
      DIDO_EXCLUDES(mu_);

  // Batch boundary: counts down the quiet dwell and, when some device's
  // window is full, runs the fit.  Returns true when a new generation was
  // committed.
  bool EndBatch() DIDO_EXCLUDES(mu_);

  // The currently committed overlay (generation 0 identity until the first
  // commit).
  CalibrationOverlay overlay() const DIDO_EXCLUDES(mu_);
  uint64_t generation() const { return overlay().generation; }

  // True once per committed shift beyond the replan threshold (a relative
  // scale change over 10%, mirroring WorkloadProfiler's workload-drift
  // trigger); DidoStore::MaybeAdapt picks it up next batch.  The caller owns
  // acting on it (the planner re-ranks pipeline cuts under the new scales).
  bool TakeReplanRequest() DIDO_EXCLUDES(mu_);

  const Options& options() const { return options_; }

 private:
  struct DeviceWindow {
    std::deque<double> predicted;
    std::deque<double> observed;
  };

  // Least-squares ratio of one device's window; 1.0 when under-sampled.
  double FitRatio(const DeviceWindow& window) const DIDO_REQUIRES(mu_);
  void PublishOverlay() DIDO_REQUIRES(mu_);

  const Options options_;

  // Metric handles: resolved once in AttachObservability, immutable after
  // (null until then — every recording site guards).
  // dido-analyze: begin-allow(lock): set once during setup, then read-only
  Counter* commits_counter_ = nullptr;
  Counter* held_fits_counter_ = nullptr;
  Counter* clamped_steps_counter_ = nullptr;
  Counter* skipped_samples_counter_ = nullptr;
  Gauge* generation_gauge_ = nullptr;
  Gauge* cpu_scale_gauge_ = nullptr;
  Gauge* gpu_scale_gauge_ = nullptr;
  Gauge* prefit_error_gauge_ = nullptr;
  Gauge* postfit_error_gauge_ = nullptr;
  TraceCollector* trace_ = nullptr;
  // dido-analyze: end-allow(lock)

  mutable Mutex mu_;
  DeviceWindow cpu_ DIDO_GUARDED_BY(mu_);
  DeviceWindow gpu_ DIDO_GUARDED_BY(mu_);
  CalibrationOverlay overlay_ DIDO_GUARDED_BY(mu_);
  uint64_t dwell_remaining_ DIDO_GUARDED_BY(mu_) = 0;
  bool replan_requested_ DIDO_GUARDED_BY(mu_) = false;
};

}  // namespace obs
}  // namespace dido

#endif  // DIDO_OBS_RECALIBRATE_H_
