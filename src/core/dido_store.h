#ifndef DIDO_CORE_DIDO_STORE_H_
#define DIDO_CORE_DIDO_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "costmodel/config_search.h"
#include "durability/durability.h"
#include "costmodel/cost_model.h"
#include "costmodel/profiler.h"
#include "obs/drift.h"
#include "obs/recalibrate.h"
#include "pipeline/kv_runtime.h"
#include "pipeline/pipeline_executor.h"

namespace dido {

namespace obs {
class TraceCollector;
}

// Construction options of a DidoStore.
struct DidoOptions {
  // Key-value memory budget (the paper's APU could share 1,908 MB; the
  // default here keeps experiments laptop-sized — see DESIGN.md).
  size_t arena_bytes = 64ull << 20;
  // Cuckoo index sizing: buckets are derived from the arena capacity at a
  // 0.5 load factor unless index_buckets is set explicitly.
  uint64_t index_buckets = 0;  // 0 = derive
  uint32_t expected_key_bytes = 8;    // for capacity-based index sizing
  uint32_t expected_value_bytes = 8;

  ExecutorOptions executor;
  CostModelOptions cost_model;
  WorkloadProfiler::Options profiler;

  // Cost-model-guided dynamic adaptation (the paper's headline mechanism).
  // When false the store keeps initial_config forever (useful baselines).
  bool adaptive = true;
  bool work_stealing = true;
  PipelineConfig initial_config = PipelineConfig::DidoDefault();

  // Closed-loop calibration (DESIGN.md §12): when observability is attached,
  // an OnlineCalibrator consumes the drift tracker's per-(device, stage)
  // residuals, fits bounded per-device scale factors, and installs them into
  // the cost model; a committed shift beyond its replan threshold forces a
  // re-planning pass even when the workload itself has not drifted.  A/B
  // benches set this false to measure the open-loop baseline.
  bool recalibrate = true;

  // Opt-in durability tier (DESIGN.md §11): when enabled, construction
  // recovers the image in durability.dir (checkpoint + log replay), every
  // applied SET/DELETE appends to the oplog, and write-through mode holds
  // acks until their LSN is durable.  Defaults OFF — the volatile store is
  // byte-for-byte unaffected.
  durability::DurabilityOptions durability;
};

// DIDO: an in-memory key-value store with dynamic pipeline execution on a
// (simulated) coupled CPU-GPU architecture.
//
// Two usage modes:
//  * Direct API — Put/Get/Delete operate synchronously on the store, for
//    applications embedding it as a library.
//  * Pipelined serving — ServeBatch() pushes client frames through the
//    current pipeline configuration; the workload profiler watches every
//    batch and, when the workload drifts >10%, the APU-aware cost model
//    re-plans the pipeline (dynamic pipeline partitioning + flexible index
//    operation assignment) with work stealing absorbing the residual
//    imbalance.
class DidoStore {
 public:
  explicit DidoStore(const DidoOptions& options,
                     const ApuSpec& spec = DefaultKaveriSpec());

  // --- direct API ---
  Status Put(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key);
  Status Delete(std::string_view key);

  // Bulk-loads `target_objects` canonical objects of `dataset` (used to
  // bring the store to the paper's "as full as possible" state).  Returns
  // the number of live objects afterwards.
  uint64_t Preload(const DatasetSpec& dataset, uint64_t target_objects);

  // --- pipelined serving ---

  // Executes one batch of ~target_queries from `source` under the current
  // pipeline configuration, then lets the profiler/cost model adapt for the
  // next batch.  `responses` optionally receives the response frames.
  BatchResult ServeBatch(TrafficSource& source, uint64_t target_queries,
                         std::vector<Frame>* responses = nullptr);

  // Steady-state measurement at the current workload: first lets the
  // adaptation settle (warmup_batches), then measures.
  PipelineExecutor::SteadyState MeasureSteadyState(TrafficSource& source,
                                                   int warmup_batches = 6,
                                                   int measure_batches = 5);

  // Forces one re-planning pass immediately (used by experiments that pin
  // the workload and only want the final configuration).
  const PipelineConfig& Replan(TrafficSource& source);

  const PipelineConfig& current_config() const { return config_; }
  uint64_t replan_count() const { return replan_count_; }

  // --- durability (only meaningful when options.durability.enabled) ---

  // Recovery outcome of the construction-time Open; Ok when durability is
  // disabled.  A store whose recovery failed must not serve traffic.
  const Status& durability_status() const { return durability_status_; }
  // Null when durability is disabled.
  durability::DurabilityManager* durability() { return durability_.get(); }

  // Takes an epoch-pinned fuzzy snapshot of the whole store into a new
  // checkpoint file, rotating the log at the boundary and truncating
  // segments the retention policy no longer needs.  `gpu_busy_fraction`
  // feeds the checksum-placement plan (0 = GPU idle).
  Status Checkpoint(double gpu_busy_fraction = 0.0);

  KvRuntime& runtime() { return *runtime_; }
  PipelineExecutor& executor() { return *executor_; }
  WorkloadProfiler& profiler() { return profiler_; }
  const CostModel& cost_model() const { return cost_model_; }
  const DidoOptions& options() const { return options_; }
  // Null until AttachObservability with options.recalibrate (the closed loop
  // rides the metrics-backed drift tracker).
  obs::OnlineCalibrator* calibrator() { return calibrator_.get(); }
  const obs::CostDriftTracker* drift_tracker() const { return drift_.get(); }

  // Wires the whole store into the observability layer: the runtime's
  // component collectors, the executor's dido_sim_* series and virtual-
  // timeline spans, a dido_replans_total counter, and the cost-model drift
  // tracker (dido_sim_costmodel_*) that compares each served batch's
  // predicted stage times to its simulated ones, µs vs µs.  When
  // options.recalibrate is set, the drift tracker additionally feeds an
  // OnlineCalibrator (dido_recal_* series) whose committed fits flow back
  // into the cost model.  `trace` may be null; `metrics` null detaches
  // everything.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceCollector* trace = nullptr);

 private:
  void MaybeAdapt();
  // Recovers durability.dir into the freshly built runtime, then attaches
  // the manager (attach strictly after replay, so replay is not re-logged).
  void OpenDurability();

  DidoOptions options_;
  ApuSpec spec_;
  std::unique_ptr<KvRuntime> runtime_;
  std::unique_ptr<durability::DurabilityManager> durability_;
  Status durability_status_ = Status::Ok();
  std::unique_ptr<PipelineExecutor> executor_;
  CostModel cost_model_;
  WorkloadProfiler profiler_;
  PipelineConfig config_;
  uint64_t replan_count_ = 0;

  // Observability (see AttachObservability).  The calibrator must outlive
  // the drift tracker that feeds it, so it is declared first.
  std::unique_ptr<obs::OnlineCalibrator> calibrator_;
  std::unique_ptr<obs::CostDriftTracker> drift_;
  obs::Counter* replans_counter_ = nullptr;
};

// Derives KvRuntime options (slab + index sizing) from store options.
KvRuntime::Options MakeRuntimeOptions(const DidoOptions& options);

}  // namespace dido

#endif  // DIDO_CORE_DIDO_STORE_H_
