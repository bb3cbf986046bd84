#ifndef DIDO_CORE_SYSTEM_RUNNER_H_
#define DIDO_CORE_SYSTEM_RUNNER_H_

#include <memory>
#include <string>

#include "core/dido_store.h"
#include "core/megakv_store.h"

namespace dido {

// Shared experiment harness used by every benchmark and the integration
// tests: builds a store sized for a workload, preloads it to the paper's
// "as full as possible" state, runs the pipeline to steady state, and
// reports the measurements each figure needs.

// Fixed settings of every experiment.
inline constexpr int kWarmupBatches = 6;  // adaptation settle time (DIDO)
inline constexpr uint64_t kWorkloadSeed = 1;
inline constexpr double kPreloadFraction = 0.80;  // of the arena's capacity

struct ExperimentOptions {
  size_t arena_bytes = 48ull << 20;   // key-value memory per store
  Micros latency_cap_us = 1000.0;     // paper default
  Micros interval_us = 0.0;           // explicit per-stage interval override
  int measure_batches = 5;
  bool work_stealing = true;          // DIDO work stealing
  bool adaptive = true;               // DIDO cost-model adaptation
  uint64_t noise_seed = 42;
  double noise_amplitude = 0.08;
  // Linux-kernel network I/O on RV/SD (paper default).  Fig. 16-18 disable
  // it for the non-8-byte-key workloads, as the paper does.
  bool network_io = true;
};

// Platform spec for an experiment (network I/O toggles the RV/SD unit cost).
ApuSpec ExperimentSpec(const ExperimentOptions& experiment);

// Everything a figure row needs.
struct SystemMeasurement {
  std::string workload;
  std::string system;
  double throughput_mops = 0.0;
  double cpu_utilization = 0.0;
  double gpu_utilization = 0.0;
  uint64_t batch_size = 0;
  Micros interval_us = 0.0;
  uint64_t stolen_queries = 0;
  PipelineConfig config;
  BatchResult representative;
  uint64_t preloaded_objects = 0;
};

// Owns the generator+source pair (the source borrows the generator).
struct WorkloadSession {
  std::unique_ptr<WorkloadGenerator> generator;
  std::unique_ptr<TrafficSource> source;

  WorkloadSession(const WorkloadSpec& spec, uint64_t num_objects,
                  uint64_t seed);
};

// Number of objects to preload for `dataset` under the given budget.
uint64_t PreloadTarget(const DatasetSpec& dataset, size_t arena_bytes,
                       double preload_fraction);

// DidoOptions tuned for a workload experiment.
DidoOptions MakeExperimentOptions(const WorkloadSpec& workload,
                                  const ExperimentOptions& experiment);

// Builds, preloads and measures a DIDO store on `workload`.
SystemMeasurement MeasureDido(const WorkloadSpec& workload,
                              const ExperimentOptions& experiment);

// Same for the Mega-KV (Coupled) baseline.
SystemMeasurement MeasureMegaKvCoupled(const WorkloadSpec& workload,
                                       const ExperimentOptions& experiment);

// DIDO pinned to `config` with adaptation off — the Fig. 10 exhaustive
// configuration sweep and the Fig. 13/14/15 single-technique studies.
SystemMeasurement MeasureFixedConfig(const WorkloadSpec& workload,
                                     const PipelineConfig& config,
                                     const ExperimentOptions& experiment);

}  // namespace dido

#endif  // DIDO_CORE_SYSTEM_RUNNER_H_
