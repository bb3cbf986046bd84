#ifndef DIDO_PIPELINE_PIPELINE_EXECUTOR_H_
#define DIDO_PIPELINE_PIPELINE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "net/sim_nic.h"
#include "pipeline/batch.h"
#include "pipeline/kv_runtime.h"
#include "pipeline/pipeline_config.h"
#include "pipeline/task_costs.h"
#include "sim/timing_model.h"

namespace dido {

namespace obs {
class AtomicHistogram;
class Counter;
class MetricsRegistry;
class TraceCollector;
}  // namespace obs

// Knobs of the pipeline simulation.
struct ExecutorOptions {
  // Average system latency bound; the per-stage scheduling interval is
  // derived as latency_cap_us / (num_stages + 1), following the paper's
  // periodical scheduling policy ("average system latencies ... always
  // limited within 1,000 us").
  Micros latency_cap_us = 1000.0;
  // Explicit per-stage interval (used by Fig. 4's 300 us setting); when > 0
  // it overrides the latency-derived interval.
  Micros interval_us = 0.0;

  double noise_amplitude = 0.08;  // per-batch timing jitter
  uint64_t noise_seed = 42;
  bool model_interference = true;
};

// Time charged to one task of one stage (drives Fig. 4 and Fig. 6).
struct TaskTimingBreakdown {
  TaskKind task = TaskKind::kRv;
  Device device = Device::kCpu;
  double items = 0.0;
  Micros time_us = 0.0;
};

// Timing outcome of one pipeline stage for one batch.
struct StageResult {
  Device device = Device::kCpu;
  std::vector<TaskKind> tasks;
  int cpu_cores = 0;             // nominal grant from the stage spec
  double cpu_cores_used = 0.0;   // load-proportional share actually consumed
  Micros time_us = 0.0;              // after interference + noise
  Micros time_after_steal_us = 0.0;  // == time_us when no stealing applied
  double intensity = 0.0;            // DRAM accesses / us
  std::vector<TaskTimingBreakdown> task_times;
};

// Full outcome of pushing one batch through the pipeline.
struct BatchResult {
  uint64_t batch_size = 0;
  Micros t_max = 0.0;  // pipeline interval (max stage time, post-steal)
  double throughput_mops = 0.0;
  std::vector<StageResult> stages;
  double cpu_utilization = 0.0;
  double gpu_utilization = 0.0;
  uint64_t stolen_queries = 0;
  Device steal_thief = Device::kCpu;
  BatchMeasurements measurements;
  WorkloadProfileData measured_profile;
};

// Drives batches of real queries through a pipeline configuration: every
// task executes for real against the shared KvRuntime (hash probes, LRU
// moves, value copies, response encoding), then each stage is charged
// simulated time by the calibrated APU model, including cross-device
// interference, per-batch jitter, and work stealing.  Throughput is
// N / T_max (paper Eq. 4 context).
class PipelineExecutor {
 public:
  PipelineExecutor(KvRuntime* runtime, const ApuSpec& spec,
                   const ExecutorOptions& options);

  const ExecutorOptions& options() const { return options_; }
  const TimingModel& timing() const { return timing_; }
  KvRuntime& runtime() { return *runtime_; }

  // Ground-truth device drift: from the next batch on, every simulated task
  // on `device` runs `scale` times slower — the "real hardware" diverging
  // from the cost model's calibration (thermal throttling, a co-runner,
  // DVFS).  This is what the drifting-device benches inject and the online
  // calibrator (DESIGN.md §12) is expected to recover; the drift flows
  // through stage times, DRAM intensities, and thief-side steal costs
  // coherently because it lives in the executor's own TimingModel.
  void SetDeviceDrift(Device device, double scale);
  double device_drift(Device device) const {
    return timing_.calibration().scale(device);
  }

  // Publishes simulator telemetry under the dido_sim_* prefix: per-stage
  // simulated times and T_max histograms, batch and steal counters.  When
  // `trace` is set, every executed batch's stages and tasks become spans on
  // a *virtual* timeline (batch k starts where batch k-1's interval ended,
  // stages of one batch run concurrently — the steady-state picture the
  // timing model computes).  Either argument may be null to detach; both
  // must outlive the executor.  Not thread-safe against concurrent
  // RunBatch (the executor itself is single-threaded).
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceCollector* trace);

  // Per-stage scheduling interval for a pipeline with `num_stages` stages.
  Micros IntervalFor(size_t num_stages) const;

  // Generates ~`target_queries` queries from `source` and executes them as
  // one batch under `config`.  `responses` (optional) receives the response
  // frames for client-side validation.
  BatchResult RunBatch(const PipelineConfig& config, TrafficSource& source,
                       uint64_t target_queries,
                       std::vector<Frame>* responses = nullptr);

  // Steady-state measurement: finds the batch size whose T_max matches the
  // scheduling interval (the paper's periodical scheduling fills each
  // interval), then averages `measure_batches` batches.
  struct SteadyState {
    uint64_t batch_size = 0;
    Micros interval_us = 0.0;
    double throughput_mops = 0.0;
    double cpu_utilization = 0.0;
    double gpu_utilization = 0.0;
    uint64_t stolen_queries = 0;
    BatchResult representative;
  };
  SteadyState RunSteadyState(const PipelineConfig& config,
                             TrafficSource& source, int measure_batches = 5);

  uint64_t batches_run() const { return sequence_; }

 private:
  // Computes stage timings (interference + noise) for an executed batch.
  void ComputeTimings(const PipelineConfig& config,
                      const WorkloadProfileData& profile, BatchResult* result);

  // Applies work stealing to the computed timings (timing redistribution at
  // 64-query chunk granularity; see work_stealing.h).
  void ApplyWorkStealing(const PipelineConfig& config,
                         const WorkloadProfileData& profile,
                         BatchResult* result);

  // Records the finished batch into metrics_/trace_ and advances the
  // virtual timeline by the batch's interval.
  void RecordBatchObservability(const BatchResult& result);

  KvRuntime* runtime_;
  ApuSpec spec_;
  TimingModel timing_;
  ExecutorOptions options_;
  uint64_t sequence_ = 0;

  // Observability sinks (see AttachObservability); all null by default.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  obs::Counter* sim_batches_counter_ = nullptr;
  obs::Counter* sim_stolen_queries_counter_ = nullptr;
  obs::Counter* sim_steal_chunks_counter_ = nullptr;
  obs::AtomicHistogram* sim_tmax_hist_ = nullptr;
  double virtual_now_us_ = 0.0;  // virtual trace timeline head
};

}  // namespace dido

#endif  // DIDO_PIPELINE_PIPELINE_EXECUTOR_H_
