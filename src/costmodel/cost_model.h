#ifndef DIDO_COSTMODEL_COST_MODEL_H_
#define DIDO_COSTMODEL_COST_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_time.h"
#include "pipeline/pipeline_config.h"
#include "pipeline/task_costs.h"
#include "sim/interference.h"
#include "sim/timing_model.h"

namespace dido {

// Tuning switches of the analytic predictor; the defaults reproduce the
// paper's model, the alternates drive the ablation benchmarks.
struct CostModelOptions {
  // Use the paper's theoretical cuckoo probe counts ((sum_i i)/n for Search
  // and Delete, amortized-O(1) Insert) instead of the implementation-
  // calibrated constants; see the deviation note in cost_model.cc.
  bool use_theoretical_probes = false;
  // Model the KC->RD task affinity (ablation: Fig. 9 error blows up).
  bool model_task_affinity = true;
  // Model the key-popularity hot-set factor P.
  bool model_popularity = true;
  // Look interference up in the microbenchmarked (quantized) grid, as the
  // paper does; disabling removes interference from predictions entirely.
  bool use_interference_grid = true;
  int interference_grid_resolution = 8;
};

// Analytic throughput prediction for one configuration.
struct StagePrediction {
  Device device = Device::kCpu;
  Micros time_us = 0.0;  // with grid interference, before work stealing
  Micros time_after_steal_us = 0.0;
};

struct Prediction {
  uint64_t batch_size = 0;
  Micros t_max = 0.0;
  double throughput_mops = 0.0;
  std::vector<StagePrediction> stages;
  uint64_t stolen_queries = 0;
};

// The APU-aware cost model of paper Section IV.  Estimates each stage's
// execution time with Eq. 1 (instructions/IPC + memory and cache access
// latencies), corrects for cross-processor interference with the
// microbenchmarked u grid (Eq. 2), folds in work stealing with Eq. 3, sizes
// the batch so that T_max fits the scheduling interval, and reports the
// throughput S = N / T_max (Eq. 4).
class CostModel {
 public:
  CostModel(const ApuSpec& spec, const CostModelOptions& options);

  const CostModelOptions& options() const { return options_; }
  const TimingModel& timing() const { return timing_; }

  // Installs the fitted per-device calibration (DESIGN.md §12): every
  // subsequent Predict* — and therefore every config-search ranking — sees
  // device times scaled by the overlay.  The interference grid needs no
  // rebuild: it maps DRAM intensities to slowdown factors, which the
  // time-scale overlay does not touch.  Not thread-safe against concurrent
  // Predict* (the planner and calibrator run on the serving thread).
  void ApplyCalibration(const CalibrationOverlay& overlay) {
    timing_.set_calibration(overlay);
  }
  const CalibrationOverlay& calibration() const {
    return timing_.calibration();
  }

  // Predicts steady-state behaviour of `config` for workload `profile`
  // under a per-stage scheduling interval of `interval_us`.
  Prediction Predict(const PipelineConfig& config,
                     const WorkloadProfileData& profile,
                     Micros interval_us) const;

  // T_max (and per-stage times) for a fixed batch size `n`.
  Prediction PredictAtBatchSize(const PipelineConfig& config,
                                const WorkloadProfileData& profile,
                                uint64_t n) const;

 private:
  // Applies the option switches (probe theory, affinity, popularity) to a
  // copy of the caller's profile/flags.
  WorkloadProfileData PrepareProfile(const WorkloadProfileData& in) const;
  TaskCostFlags Flags() const;

  ApuSpec spec_;
  TimingModel timing_;
  CostModelOptions options_;
  std::unique_ptr<InterferenceGrid> grid_;
};

}  // namespace dido

#endif  // DIDO_COSTMODEL_COST_MODEL_H_
