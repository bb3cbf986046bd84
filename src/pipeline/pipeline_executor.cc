#include "pipeline/pipeline_executor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/work_stealing.h"
#include "sim/device_spec.h"
#include "sync/epoch.h"

namespace dido {
namespace {

// Tasks a thief may take over during work stealing: range tasks only, and
// a GPU thief only those it has kernels for.
bool StealEligible(TaskKind task, Device thief) {
  return thief == Device::kGpu ? IsGpuKernelTask(task) : IsRangeTask(task);
}

// Builds the measured workload profile of an executed batch from the batch's
// own counters and the runtime's live-object count.  The distribution fields
// (zipf, zipf_skew) are left at their defaults; RunBatch fills them from its
// generator's spec.
WorkloadProfileData ProfileFromBatch(const QueryBatch& batch,
                                     const KvRuntime& runtime) {
  const BatchMeasurements& m = batch.measurements;
  WorkloadProfileData profile;
  profile.batch_n = m.num_queries;
  profile.get_ratio = m.get_ratio();
  profile.hit_ratio = m.hit_ratio();
  const double n = std::max<double>(1.0, static_cast<double>(m.num_queries));
  profile.inserts_per_query = static_cast<double>(m.inserts) / n;
  profile.deletes_per_query = static_cast<double>(m.deletes) / n;
  profile.avg_key_bytes = m.sum_key_bytes / n;
  const double value_samples =
      static_cast<double>(m.sets) + static_cast<double>(m.hits);
  profile.avg_value_bytes =
      value_samples > 0
          ? (m.sum_value_bytes + m.sum_hit_value_bytes) / value_samples
          : 0.0;
  profile.num_objects = runtime.live_objects();
  profile.queries_per_frame =
      m.num_frames > 0 ? n / static_cast<double>(m.num_frames) : 1.0;
  if (m.search_probes > 0) profile.search_probes = m.search_probes;
  if (m.insert_probes > 0) profile.insert_probes = m.insert_probes;
  if (m.delete_probes > 0) profile.delete_probes = m.delete_probes;
  return profile;
}

}  // namespace

PipelineExecutor::PipelineExecutor(KvRuntime* runtime, const ApuSpec& spec,
                                   const ExecutorOptions& options)
    : runtime_(runtime), spec_(spec), timing_(spec), options_(options) {
  DIDO_CHECK(runtime != nullptr);
}

void PipelineExecutor::SetDeviceDrift(Device device, double scale) {
  DIDO_CHECK_GT(scale, 0.0);
  CalibrationOverlay drift = timing_.calibration();
  (device == Device::kCpu ? drift.cpu_scale : drift.gpu_scale) = scale;
  drift.generation += 1;
  timing_.set_calibration(drift);
}

Micros PipelineExecutor::IntervalFor(size_t num_stages) const {
  if (options_.interval_us > 0.0) return options_.interval_us;
  return SchedulingIntervalUs(options_.latency_cap_us, num_stages);
}

BatchResult PipelineExecutor::RunBatch(const PipelineConfig& config,
                                       TrafficSource& source,
                                       uint64_t target_queries,
                                       std::vector<Frame>* responses) {
  DIDO_CHECK(config.Valid()) << config.ToString();
  // The executor thread is an epoch participant for the batch's lifetime,
  // giving its pins (batch pin aside) the contention-free slot path.
  ScopedEpochParticipant epoch_participant(runtime_->epoch());
  QueryBatch batch;
  batch.sequence = ++sequence_;
  batch.config = config;

  // RV: pull frames off the (virtual) wire until the batch is full.
  uint64_t queries = 0;
  while (queries < target_queries) {
    Frame frame;
    queries += source.FillFrame(&frame, nullptr);
    batch.frames.push_back(std::move(frame));
  }

  // PP: parse + hash.
  const Status pp_status = runtime_->RunPacketProcessing(&batch);
  DIDO_CHECK(pp_status.ok()) << pp_status.ToString();

  // Remaining tasks in stage order, executed for real over the full range.
  for (const StageSpec& stage : config.Stages(spec_.cpu.cores)) {
    runtime_->RunStage(stage, &batch);
  }
  runtime_->RetireBatch(&batch);
  if (responses != nullptr) {
    for (Frame& f : batch.responses) responses->push_back(std::move(f));
  }

  // Timing: charge the executed batch against the APU model.
  BatchResult result;
  result.batch_size = batch.size();
  result.measurements = batch.measurements;
  result.measured_profile = ProfileFromBatch(batch, *runtime_);
  const WorkloadSpec& workload = source.generator().spec();
  result.measured_profile.zipf =
      workload.distribution == KeyDistribution::kZipf;
  result.measured_profile.zipf_skew = workload.zipf_skew;
  ComputeTimings(config, result.measured_profile, &result);
  if (config.work_stealing) {
    ApplyWorkStealing(config, result.measured_profile, &result);
  }

  result.t_max = 0.0;
  for (const StageResult& stage : result.stages) {
    result.t_max = std::max(result.t_max, stage.time_after_steal_us);
  }
  result.throughput_mops =
      ToMops(static_cast<double>(result.batch_size), result.t_max);

  // Utilization: fraction of each device's capacity busy over the interval.
  double cpu_busy = 0.0;
  double gpu_busy = 0.0;
  for (const StageResult& stage : result.stages) {
    if (stage.device == Device::kCpu) {
      cpu_busy += stage.time_after_steal_us * stage.cpu_cores_used /
                  static_cast<double>(spec_.cpu.cores);
    } else {
      gpu_busy += stage.time_after_steal_us;
    }
  }
  if (result.stolen_queries > 0) {
    // The thief's stolen work happens inside the interval; approximate its
    // busy time as the gap it filled.
    const double stolen_time =
        result.t_max -
        (result.steal_thief == Device::kCpu ? cpu_busy : gpu_busy);
    if (result.steal_thief == Device::kCpu) {
      cpu_busy += std::max(0.0, stolen_time);
    } else {
      gpu_busy += std::max(0.0, stolen_time);
    }
  }
  if (result.t_max > 0.0) {
    result.cpu_utilization = std::clamp(cpu_busy / result.t_max, 0.0, 1.0);
    result.gpu_utilization = std::clamp(gpu_busy / result.t_max, 0.0, 1.0);
  }
  RecordBatchObservability(result);
  return result;
}

void PipelineExecutor::AttachObservability(obs::MetricsRegistry* metrics,
                                           obs::TraceCollector* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ == nullptr) {
    sim_batches_counter_ = nullptr;
    sim_stolen_queries_counter_ = nullptr;
    sim_steal_chunks_counter_ = nullptr;
    sim_tmax_hist_ = nullptr;
    return;
  }
  sim_batches_counter_ = metrics_->GetCounter(
      "dido_sim_batches_total", "Batches executed by the simulator");
  sim_stolen_queries_counter_ = metrics_->GetCounter(
      "dido_sim_stolen_queries_total", "Queries moved by work stealing");
  sim_steal_chunks_counter_ = metrics_->GetCounter(
      "dido_sim_steal_chunks_total", "64-query chunks moved by work stealing");
  sim_tmax_hist_ = metrics_->GetHistogram(
      "dido_sim_tmax_us", "Simulated pipeline interval T_max per batch");
}

void PipelineExecutor::RecordBatchObservability(const BatchResult& result) {
  if (metrics_ != nullptr) {
    sim_batches_counter_->Add();
    sim_tmax_hist_->Record(result.t_max);
    if (result.stolen_queries > 0) {
      sim_stolen_queries_counter_->Add(result.stolen_queries);
      sim_steal_chunks_counter_->Add(
          (result.stolen_queries + StealTagArray::kChunkQueries - 1) /
          StealTagArray::kChunkQueries);
    }
    for (size_t s = 0; s < result.stages.size(); ++s) {
      metrics_
          ->GetHistogram(
              obs::MetricName(
                  "dido_sim_stage_time_us",
                  {{"stage", std::to_string(s)},
                   {"device", DeviceName(result.stages[s].device)}}),
              "Simulated stage time per batch (after work stealing)")
          ->Record(result.stages[s].time_after_steal_us);
    }
  }
  if (trace_ != nullptr && trace_->enabled()) {
    const uint64_t base = static_cast<uint64_t>(virtual_now_us_);
    for (size_t s = 0; s < result.stages.size(); ++s) {
      const StageResult& stage = result.stages[s];
      const std::string device(DeviceName(stage.device));
      obs::TraceSpan span;
      span.name = "stage" + std::to_string(s);
      span.category = "stage";
      span.ts_us = base;
      span.dur_us = static_cast<uint64_t>(stage.time_after_steal_us);
      span.tid = static_cast<uint32_t>(s);
      span.args_json =
          "\"device\":" + obs::TraceJsonString(device) +
          ",\"queries\":" + std::to_string(result.batch_size);
      if (result.stolen_queries > 0 &&
          stage.time_after_steal_us < stage.time_us) {
        // The bottleneck stage work stealing shortened.
        span.args_json +=
            ",\"stolen_queries\":" + std::to_string(result.stolen_queries) +
            ",\"stolen_chunks\":" +
            std::to_string((result.stolen_queries +
                            StealTagArray::kChunkQueries - 1) /
                           StealTagArray::kChunkQueries);
      }
      trace_->AddSpan(std::move(span));
      // Task spans laid out sequentially inside the stage interval.
      double offset = 0.0;
      for (const TaskTimingBreakdown& tb : stage.task_times) {
        obs::TraceSpan task_span;
        task_span.name = std::string(TaskKindName(tb.task));
        task_span.category = "task";
        task_span.ts_us = base + static_cast<uint64_t>(offset);
        task_span.dur_us = static_cast<uint64_t>(tb.time_us);
        task_span.tid = static_cast<uint32_t>(s);
        task_span.args_json =
            "\"device\":" + obs::TraceJsonString(device) +
            ",\"items\":" + std::to_string(static_cast<uint64_t>(tb.items));
        trace_->AddSpan(std::move(task_span));
        offset += tb.time_us;
      }
    }
  }
  virtual_now_us_ += result.t_max;
}

void PipelineExecutor::ComputeTimings(const PipelineConfig& config,
                                      const WorkloadProfileData& profile,
                                      BatchResult* result) {
  const std::vector<StageSpec> stages = config.Stages(spec_.cpu.cores);
  result->stages.clear();

  // Base (no-interference) stage times and intensities.
  std::vector<double> base_times;
  std::vector<double> accesses;  // total DRAM accesses per stage
  for (const StageSpec& stage : stages) {
    const Micros t = StageTimeNoInterference(stage, profile, config, timing_);
    base_times.push_back(t);
    double stage_accesses = 0.0;
    for (TaskKind task : stage.tasks) {
      const double items = TaskItemCount(task, profile);
      if (items <= 0.0) continue;
      const AccessCounts counts =
          TaskAccessCounts(task, stage.device, profile, config, spec_);
      stage_accesses += counts.mem_accesses * items;
    }
    accesses.push_back(stage_accesses);
  }

  // CPU core allocation.  Mega-KV pins a fixed thread pair per stage
  // (static_cpu_assignment); DIDO lets the scheduler time-share the four
  // cores in proportion to stage load, so all CPU stages finish together in
  // (total single-core CPU work) / cores.
  std::vector<double> cores_used(stages.size(), 0.0);
  for (size_t s = 0; s < stages.size(); ++s) {
    if (stages[s].device == Device::kCpu) {
      cores_used[s] = stages[s].cpu_cores;
    }
  }
  if (!config.static_cpu_assignment) {
    double total_single_core_us = 0.0;
    for (size_t s = 0; s < stages.size(); ++s) {
      if (stages[s].device != Device::kCpu) continue;
      total_single_core_us += base_times[s] * stages[s].cpu_cores;
    }
    const double combined =
        total_single_core_us / static_cast<double>(spec_.cpu.cores);
    for (size_t s = 0; s < stages.size(); ++s) {
      if (stages[s].device != Device::kCpu) continue;
      cores_used[s] = combined > 0.0
                          ? base_times[s] * stages[s].cpu_cores / combined
                          : 0.0;
      base_times[s] = combined;
    }
  }

  // Interference fixed point: stages of a pipeline run concurrently in
  // steady state, so each device sees the other's DRAM traffic.  Intensity
  // depends on the interval, which depends on the slowdown — iterate.
  std::vector<double> mu(stages.size(), 1.0);
  if (options_.model_interference) {
    double interval = *std::max_element(base_times.begin(), base_times.end());
    for (int iter = 0; iter < 3; ++iter) {
      double cpu_intensity = 0.0;
      double gpu_intensity = 0.0;
      for (size_t s = 0; s < stages.size(); ++s) {
        const double intensity =
            interval > 0.0 ? accesses[s] / interval : 0.0;
        if (stages[s].device == Device::kCpu) {
          cpu_intensity += intensity;
        } else {
          gpu_intensity += intensity;
        }
      }
      double new_interval = 0.0;
      for (size_t s = 0; s < stages.size(); ++s) {
        const bool is_cpu = stages[s].device == Device::kCpu;
        mu[s] = timing_.InterferenceFactor(
            is_cpu ? Device::kCpu : Device::kGpu,
            is_cpu ? cpu_intensity : gpu_intensity,
            is_cpu ? gpu_intensity : cpu_intensity);
        new_interval = std::max(new_interval, base_times[s] * mu[s]);
      }
      interval = new_interval;
    }
  }

  for (size_t s = 0; s < stages.size(); ++s) {
    StageResult sr;
    sr.device = stages[s].device;
    sr.tasks = stages[s].tasks;
    sr.cpu_cores = stages[s].cpu_cores;
    sr.cpu_cores_used =
        stages[s].device == Device::kCpu ? cores_used[s] : 0.0;
    const double noise = TimingModel::NoiseFactor(
        options_.noise_seed, sequence_ * 16 + s, options_.noise_amplitude);
    sr.time_us = base_times[s] * mu[s] * noise;
    sr.time_after_steal_us = sr.time_us;
    sr.intensity = sr.time_us > 0.0 ? accesses[s] / sr.time_us : 0.0;

    // Per-task breakdown: nominal-core task times, rescaled so that they
    // sum to the stage time under the actual core share.
    const int cores = stages[s].device == Device::kCpu
                          ? stages[s].cpu_cores
                          : spec_.gpu.cores;
    double nominal_total = 0.0;
    for (TaskKind task : stages[s].tasks) {
      TaskTimingBreakdown tb;
      tb.task = task;
      tb.device = stages[s].device;
      tb.items = TaskItemCount(task, profile);
      if (task == TaskKind::kRv) {
        tb.time_us = tb.items * spec_.rv_us_per_frame / std::max(1, cores);
      } else if (task == TaskKind::kSd) {
        tb.time_us = tb.items * spec_.sd_us_per_frame / std::max(1, cores);
      } else if (tb.items > 0.0) {
        const AccessCounts counts =
            TaskAccessCounts(task, stages[s].device, profile, config, spec_);
        tb.time_us = timing_.TaskTime(
            stages[s].device, counts,
            static_cast<uint64_t>(std::ceil(tb.items)), cores);
      }
      nominal_total += tb.time_us;
      sr.task_times.push_back(tb);
    }
    const double rescale =
        nominal_total > 0.0 ? sr.time_us / nominal_total : 1.0;
    for (TaskTimingBreakdown& tb : sr.task_times) {
      tb.time_us *= rescale;
    }
    result->stages.push_back(std::move(sr));
  }
}

void PipelineExecutor::ApplyWorkStealing(const PipelineConfig& config,
                                         const WorkloadProfileData& profile,
                                         BatchResult* result) {
  if (result->stages.size() < 2) return;

  // Bottleneck stage and the busiest stage of the other device.
  size_t bottleneck = 0;
  for (size_t s = 1; s < result->stages.size(); ++s) {
    if (result->stages[s].time_us > result->stages[bottleneck].time_us) {
      bottleneck = s;
    }
  }
  StageResult& bot = result->stages[bottleneck];
  const Device thief =
      bot.device == Device::kCpu ? Device::kGpu : Device::kCpu;

  // The thief is available once all of its own stages are done.
  double thief_start = 0.0;
  bool thief_exists = false;
  for (const StageResult& stage : result->stages) {
    if (stage.device == thief) {
      thief_exists = true;
      thief_start = std::max(thief_start, stage.time_us);
    }
  }
  if (!thief_exists) return;
  thief_start += kStealSetupUs;

  // Split the bottleneck stage's stealable work at chunk granularity.
  double eligible_us = 0.0;
  double residual_us = 0.0;
  std::vector<TaskKind> eligible_tasks;
  for (const TaskTimingBreakdown& tb : bot.task_times) {
    if (StealEligible(tb.task, thief)) {
      eligible_us += tb.time_us;
      eligible_tasks.push_back(tb.task);
    } else {
      residual_us += tb.time_us;
    }
  }
  if (eligible_us <= 0.0 || eligible_tasks.empty()) return;

  const uint64_t chunks =
      (result->batch_size + StealTagArray::kChunkQueries - 1) /
      StealTagArray::kChunkQueries;
  if (chunks == 0) return;
  const double owner_chunk_us = eligible_us / static_cast<double>(chunks);

  // Thief-side cost of the same task set, amortized over the whole batch
  // (one kernel covers all stolen chunks when the thief is the GPU).
  StageSpec thief_stage;
  thief_stage.device = thief;
  thief_stage.tasks = eligible_tasks;
  thief_stage.cpu_cores = spec_.cpu.cores;
  const double thief_total_us =
      StageTimeNoInterference(thief_stage, profile, config, timing_) /
      kStealEfficiency;
  const double thief_chunk_us =
      thief_total_us / static_cast<double>(chunks);

  const StealSplit split =
      SolveStealSplit(chunks, owner_chunk_us, residual_us, thief_start,
                      thief_chunk_us, kStealSyncUs);
  if (split.thief_chunks == 0) return;

  bot.time_after_steal_us = split.finish_us;
  result->stolen_queries =
      split.thief_chunks * StealTagArray::kChunkQueries;
  result->steal_thief = thief;
}

PipelineExecutor::SteadyState PipelineExecutor::RunSteadyState(
    const PipelineConfig& config, TrafficSource& source, int measure_batches) {
  const std::vector<StageSpec> stages = config.Stages(spec_.cpu.cores);
  const Micros interval = IntervalFor(stages.size());

  // Find the batch size that fills the scheduling interval.
  uint64_t batch_size = 1024;
  BatchResult probe;
  for (int iter = 0; iter < 8; ++iter) {
    probe = RunBatch(config, source, batch_size);
    if (probe.t_max <= 0.0) break;
    const double scale = interval / probe.t_max;
    const uint64_t next = ClampBatchSize(static_cast<uint64_t>(
        static_cast<double>(probe.batch_size) * scale));
    if (next == batch_size || std::fabs(scale - 1.0) < 0.04) {
      batch_size = next;
      break;
    }
    batch_size = next;
  }

  SteadyState out;
  out.batch_size = batch_size;
  out.interval_us = interval;
  double mops = 0.0;
  double cpu_util = 0.0;
  double gpu_util = 0.0;
  uint64_t stolen = 0;
  for (int i = 0; i < measure_batches; ++i) {
    BatchResult r = RunBatch(config, source, batch_size);
    mops += r.throughput_mops;
    cpu_util += r.cpu_utilization;
    gpu_util += r.gpu_utilization;
    stolen += r.stolen_queries;
    if (i + 1 == measure_batches) out.representative = std::move(r);
  }
  const double denom = std::max(1, measure_batches);
  out.throughput_mops = mops / denom;
  out.cpu_utilization = cpu_util / denom;
  out.gpu_utilization = gpu_util / denom;
  out.stolen_queries = stolen / static_cast<uint64_t>(denom);
  return out;
}

}  // namespace dido
