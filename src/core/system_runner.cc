#include "core/system_runner.h"

#include <algorithm>

#include "common/logging.h"

namespace dido {

ApuSpec ExperimentSpec(const ExperimentOptions& experiment) {
  ApuSpec spec = DefaultKaveriSpec();
  if (!experiment.network_io) {
    spec.rv_us_per_frame = 0.08;  // frames read from local memory
    spec.sd_us_per_frame = 0.08;
  }
  return spec;
}

WorkloadSession::WorkloadSession(const WorkloadSpec& spec,
                                 uint64_t num_objects, uint64_t seed)
    : generator(std::make_unique<WorkloadGenerator>(spec, num_objects, seed)),
      source(std::make_unique<TrafficSource>(generator.get())) {}

uint64_t PreloadTarget(const DatasetSpec& dataset, size_t arena_bytes,
                       double preload_fraction) {
  SlabAllocator::Options slab;
  slab.arena_bytes = arena_bytes;
  SlabAllocator probe(slab);
  const uint64_t capacity =
      probe.CapacityForObject(dataset.key_size, dataset.value_size);
  return std::max<uint64_t>(
      1024, static_cast<uint64_t>(static_cast<double>(capacity) *
                                  preload_fraction));
}

DidoOptions MakeExperimentOptions(const WorkloadSpec& workload,
                                  const ExperimentOptions& experiment) {
  DidoOptions options;
  options.arena_bytes = experiment.arena_bytes;
  options.expected_key_bytes = workload.dataset.key_size;
  options.expected_value_bytes = workload.dataset.value_size;
  options.executor.latency_cap_us = experiment.latency_cap_us;
  options.executor.interval_us = experiment.interval_us;
  options.executor.noise_seed = experiment.noise_seed;
  options.executor.noise_amplitude = experiment.noise_amplitude;
  options.adaptive = experiment.adaptive;
  options.work_stealing = experiment.work_stealing;
  return options;
}

namespace {

SystemMeasurement FinishMeasurement(
    const WorkloadSpec& workload, const std::string& system,
    const PipelineConfig& config, uint64_t preloaded,
    PipelineExecutor::SteadyState steady) {
  SystemMeasurement m;
  m.workload = workload.Name();
  m.system = system;
  m.throughput_mops = steady.throughput_mops;
  m.cpu_utilization = steady.cpu_utilization;
  m.gpu_utilization = steady.gpu_utilization;
  m.batch_size = steady.batch_size;
  m.interval_us = steady.interval_us;
  m.stolen_queries = steady.stolen_queries;
  m.config = config;
  m.representative = std::move(steady.representative);
  m.preloaded_objects = preloaded;
  return m;
}

}  // namespace

SystemMeasurement MeasureDido(const WorkloadSpec& workload,
                              const ExperimentOptions& experiment) {
  DidoStore store(MakeExperimentOptions(workload, experiment),
                  ExperimentSpec(experiment));
  const uint64_t target = PreloadTarget(
      workload.dataset, experiment.arena_bytes, kPreloadFraction);
  const uint64_t preloaded = store.Preload(workload.dataset, target);
  WorkloadSession session(workload, preloaded, kWorkloadSeed);
  PipelineExecutor::SteadyState steady = store.MeasureSteadyState(
      *session.source, kWarmupBatches, experiment.measure_batches);
  return FinishMeasurement(workload, "DIDO", store.current_config(), preloaded,
                           std::move(steady));
}

SystemMeasurement MeasureMegaKvCoupled(const WorkloadSpec& workload,
                                       const ExperimentOptions& experiment) {
  DidoStore store(
      MegaKvCoupledOptions(MakeExperimentOptions(workload, experiment)),
      ExperimentSpec(experiment));
  const uint64_t target = PreloadTarget(
      workload.dataset, experiment.arena_bytes, kPreloadFraction);
  const uint64_t preloaded = store.Preload(workload.dataset, target);
  WorkloadSession session(workload, preloaded, kWorkloadSeed);
  PipelineExecutor::SteadyState steady = store.MeasureSteadyState(
      *session.source, /*warmup_batches=*/0, experiment.measure_batches);
  return FinishMeasurement(workload, "Mega-KV (Coupled)",
                           store.current_config(), preloaded,
                           std::move(steady));
}

SystemMeasurement MeasureFixedConfig(const WorkloadSpec& workload,
                                     const PipelineConfig& config,
                                     const ExperimentOptions& experiment) {
  DIDO_CHECK(config.Valid()) << config.ToString();
  ExperimentOptions pinned = experiment;
  pinned.adaptive = false;
  pinned.work_stealing = config.work_stealing;
  DidoOptions options = MakeExperimentOptions(workload, pinned);
  options.initial_config = config;
  DidoStore store(options, ExperimentSpec(pinned));
  const uint64_t target = PreloadTarget(
      workload.dataset, experiment.arena_bytes, kPreloadFraction);
  const uint64_t preloaded = store.Preload(workload.dataset, target);
  WorkloadSession session(workload, preloaded, kWorkloadSeed);
  PipelineExecutor::SteadyState steady = store.MeasureSteadyState(
      *session.source, /*warmup_batches=*/1, experiment.measure_batches);
  return FinishMeasurement(workload, "fixed:" + config.ToString(),
                           store.current_config(), preloaded,
                           std::move(steady));
}

}  // namespace dido
