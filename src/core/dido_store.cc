#include "core/dido_store.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace dido {
namespace {

// Load factor a full arena of expected-size objects puts on a derived index.
constexpr double kIndexTargetLoad = 0.5;

// Feeds one executed batch to `tracker`: `prediction`'s per-stage times
// (after work stealing) and devices against `observed_us`, the batch's
// simulated time per stage.  Skips the batch when the stage counts differ.
void ObservePredictionDrift(const Prediction& prediction,
                            const std::vector<double>& observed_us,
                            obs::CostDriftTracker* tracker) {
  if (prediction.stages.size() != observed_us.size()) return;
  std::vector<double> predicted_us;
  std::vector<Device> devices;
  predicted_us.reserve(observed_us.size());
  devices.reserve(observed_us.size());
  for (const StagePrediction& stage : prediction.stages) {
    predicted_us.push_back(stage.time_after_steal_us);
    devices.push_back(stage.device);
  }
  tracker->ObserveBatch(predicted_us, observed_us, devices);
}

}  // namespace

KvRuntime::Options MakeRuntimeOptions(const DidoOptions& options) {
  KvRuntime::Options rt;
  rt.slab.arena_bytes = options.arena_bytes;

  uint64_t buckets = options.index_buckets;
  if (buckets == 0) {
    // Size the index so a full arena of expected-size objects sits at the
    // target load factor.
    SlabAllocator probe(rt.slab);
    const uint64_t capacity = probe.CapacityForObject(
        options.expected_key_bytes, options.expected_value_bytes);
    const double slots =
        static_cast<double>(std::max<uint64_t>(capacity, 1024)) /
        kIndexTargetLoad;
    buckets = std::bit_ceil(static_cast<uint64_t>(
        slots / CuckooHashTable::kSlotsPerBucket));
  }
  rt.index.num_buckets = buckets;
  return rt;
}

DidoStore::DidoStore(const DidoOptions& options, const ApuSpec& spec)
    : options_(options),
      spec_(spec),
      runtime_(std::make_unique<KvRuntime>(MakeRuntimeOptions(options))),
      executor_(std::make_unique<PipelineExecutor>(runtime_.get(), spec,
                                                   options.executor)),
      cost_model_(spec, options.cost_model),
      profiler_(options.profiler),
      config_(options.initial_config) {
  config_.work_stealing = options_.work_stealing;
  DIDO_CHECK(config_.Valid());
  if (options_.durability.enabled) OpenDurability();
}

void DidoStore::OpenDurability() {
  durability_ = std::make_unique<durability::DurabilityManager>(
      options_.durability, spec_);
  // Replay applier: rebuild through the runtime's direct mutators.  The
  // manager is attached only after Open returns, so the replayed operations
  // are not re-appended to the very log being recovered.
  durability::RecoveryApplier applier;
  applier.apply_set = [this](std::string_view key, std::string_view value,
                             uint32_t /*version*/) {
    return runtime_->Put(key, value);
  };
  applier.apply_delete = [this](std::string_view key) {
    const Status status = runtime_->DeleteKey(key);
    // A replayed DELETE may target a key the fuzzy snapshot never held
    // (the paired SET landed after the checkpoint cut saw the bucket);
    // absence is the operation's goal, not a replay failure.
    if (status.code() == StatusCode::kNotFound) return Status::Ok();
    return status;
  };
  durability_status_ = durability_->Open(applier, nullptr);
  if (!durability_status_.ok()) {
    DIDO_LOG(Error) << "durability recovery failed: "
                    << durability_status_.ToString();
    durability_.reset();
    return;
  }
  runtime_->set_durability(durability_.get());
}

Status DidoStore::Checkpoint(double gpu_busy_fraction) {
  if (durability_ == nullptr) {
    return Status::Unavailable("durability tier not enabled");
  }
  return durability_->Checkpoint(
      [this](const durability::DurabilityManager::SnapshotSink& sink) {
        // The pin spans the whole walk: every pointer ForEach yields is
        // retire-able, and the sink reads its key/value bytes.
        EpochGuard guard(runtime_->epoch());
        Status status = Status::Ok();
        runtime_->index().ForEach([&](const KvObject* object) {
          if (!status.ok()) return;
          const Status append =
              sink(object->Key(), object->Value(), object->version);
          if (!append.ok()) status = append;
        });
        return status;
      },
      gpu_busy_fraction);
}

Status DidoStore::Put(std::string_view key, std::string_view value) {
  return runtime_->Put(key, value);
}

Result<std::string> DidoStore::Get(std::string_view key) {
  return runtime_->GetValue(key);
}

Status DidoStore::Delete(std::string_view key) {
  return runtime_->DeleteKey(key);
}

uint64_t DidoStore::Preload(const DatasetSpec& dataset,
                            uint64_t target_objects) {
  return runtime_->Preload(dataset, target_objects);
}

void DidoStore::AttachObservability(obs::MetricsRegistry* metrics,
                                    obs::TraceCollector* trace) {
  runtime_->RegisterMetrics(metrics);
  executor_->AttachObservability(metrics, trace);
  if (durability_ != nullptr) {
    durability_->RegisterMetrics(metrics);
    durability_->set_trace(trace);
  }
  if (metrics == nullptr) {
    drift_.reset();
    calibrator_.reset();
    replans_counter_ = nullptr;
    return;
  }
  replans_counter_ = metrics->GetCounter(
      "dido_replans_total", "Cost-model re-planning passes executed");
  // Both sides of the drift comparison are simulated-APU microseconds (the
  // paper's Fig. 9 prediction-error setting, evaluated continuously).
  obs::CostDriftTracker::Options drift_options;
  if (options_.recalibrate) {
    obs::OnlineCalibrator::Options recal;
    // Committed fits land in the cost model immediately; the next
    // prediction — and the next planner pass — runs under the new scales.
    recal.on_commit = [this](const CalibrationOverlay& overlay) {
      cost_model_.ApplyCalibration(overlay);
    };
    calibrator_ = std::make_unique<obs::OnlineCalibrator>(recal);
    calibrator_->AttachObservability(metrics, trace);
    drift_options.calibrator = calibrator_.get();
  } else {
    calibrator_.reset();
  }
  drift_ = std::make_unique<obs::CostDriftTracker>(metrics, drift_options);
}

void DidoStore::MaybeAdapt() {
  runtime_->set_sampling_epoch(profiler_.epoch());
  if (!options_.adaptive) return;
  // Two independent replan triggers: the workload drifted (profiler) or the
  // hardware model drifted (a committed calibration shift beyond the
  // calibrator's replan threshold re-ranks the pipeline cuts).
  const bool calibration_shift =
      calibrator_ != nullptr && calibrator_->TakeReplanRequest();
  if (!calibration_shift && !profiler_.ShouldReplan()) return;
  SearchOptions search;
  search.latency_cap_us = options_.executor.latency_cap_us;
  search.interval_us = options_.executor.interval_us;
  search.work_stealing = options_.work_stealing;
  const SearchResult result =
      FindOptimalConfig(cost_model_, profiler_.Estimate(), search);
  if (!(result.best.config == config_)) {
    DIDO_LOG(Debug) << "pipeline re-planned: " << result.best.config.ToString();
    config_ = result.best.config;
  }
  profiler_.MarkPlanned();
  replan_count_ += 1;
  if (replans_counter_ != nullptr) replans_counter_->Add();
}

BatchResult DidoStore::ServeBatch(TrafficSource& source,
                                  uint64_t target_queries,
                                  std::vector<Frame>* responses) {
  BatchResult result =
      executor_->RunBatch(config_, source, target_queries, responses);
  if (drift_ != nullptr && !result.stages.empty()) {
    // Model error with truthful workload inputs: predict the batch we just
    // executed from its own measured profile, compare per-stage simulated
    // times (both sides in simulated-APU microseconds).
    std::vector<double> observed_us;
    for (const StageResult& stage : result.stages) {
      observed_us.push_back(stage.time_after_steal_us);
    }
    ObservePredictionDrift(
        cost_model_.PredictAtBatchSize(
            config_, result.measured_profile,
            std::max<uint64_t>(1, result.batch_size)),
        observed_us, drift_.get());
  }
  profiler_.Observe(result.measured_profile, result.measurements);
  MaybeAdapt();
  return result;
}

PipelineExecutor::SteadyState DidoStore::MeasureSteadyState(
    TrafficSource& source, int warmup_batches, int measure_batches) {
  for (int i = 0; i < warmup_batches; ++i) {
    ServeBatch(source, 2048);
  }
  return executor_->RunSteadyState(config_, source, measure_batches);
}

const PipelineConfig& DidoStore::Replan(TrafficSource& source) {
  // One observation batch so the profiler has fresh counters, then plan.
  BatchResult result = executor_->RunBatch(config_, source, 2048);
  profiler_.Observe(result.measured_profile, result.measurements);
  const bool was_adaptive = options_.adaptive;
  options_.adaptive = true;
  // Force the drift check to pass by clearing the planned snapshot.
  SearchOptions search;
  search.latency_cap_us = options_.executor.latency_cap_us;
  search.interval_us = options_.executor.interval_us;
  search.work_stealing = options_.work_stealing;
  const SearchResult best =
      FindOptimalConfig(cost_model_, profiler_.Estimate(), search);
  config_ = best.best.config;
  profiler_.MarkPlanned();
  replan_count_ += 1;
  if (replans_counter_ != nullptr) replans_counter_->Add();
  options_.adaptive = was_adaptive;
  return config_;
}

}  // namespace dido
