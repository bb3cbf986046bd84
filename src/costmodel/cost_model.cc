#include "costmodel/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "pipeline/work_stealing.h"

namespace dido {
namespace {

// Paper Eq. 3 (generalized to either thief direction): the bottleneck
// stage's work is co-processed once the thief has finished its own task set.
//   T_WS = T_B + T_thief * (T_owner - T_B) / (T_owner + T_thief)
Micros Eq3StealTime(Micros owner_time, Micros thief_busy, Micros thief_time) {
  if (thief_busy >= owner_time || thief_time <= 0.0) return owner_time;
  return thief_busy +
         thief_time * (owner_time - thief_busy) / (owner_time + thief_time);
}

}  // namespace

CostModel::CostModel(const ApuSpec& spec, const CostModelOptions& options)
    : spec_(spec), timing_(spec), options_(options) {
  if (options_.use_interference_grid) {
    grid_ = std::make_unique<InterferenceGrid>(
        timing_, options_.interference_grid_resolution);
  }
}

WorkloadProfileData CostModel::PrepareProfile(
    const WorkloadProfileData& in) const {
  WorkloadProfileData profile = in;
  if (options_.use_theoretical_probes) {
    // Paper Section IV-B: cuckoo hashing with n hash functions costs
    // (sum_i i)/n random accesses per Search/Delete (1.5 for n = 2) and
    // amortized O(1) bucket work per Insert.  The implementation reads both
    // candidate buckets unconditionally for correctness, so its calibrated
    // constants are ~2.0; this switch restores the idealized values for the
    // ablation study.
    profile.search_probes = 1.5;
    profile.delete_probes = 1.5;
    profile.insert_probes = 1.1;
  }
  return profile;
}

TaskCostFlags CostModel::Flags() const {
  TaskCostFlags flags;
  flags.model_affinity = options_.model_task_affinity;
  flags.model_popularity = options_.model_popularity;
  return flags;
}

Prediction CostModel::PredictAtBatchSize(const PipelineConfig& config,
                                         const WorkloadProfileData& profile_in,
                                         uint64_t n) const {
  WorkloadProfileData profile = PrepareProfile(profile_in);
  profile.batch_n = n;
  const TaskCostFlags flags = Flags();
  const std::vector<StageSpec> stages = config.Stages(spec_.cpu.cores);

  Prediction prediction;
  prediction.batch_size = n;

  // Eq. 1 per stage.
  std::vector<double> base_times;
  std::vector<double> accesses;
  for (const StageSpec& stage : stages) {
    const Micros t =
        StageTimeNoInterference(stage, profile, config, timing_, flags);
    base_times.push_back(t);
    double stage_accesses = 0.0;
    for (TaskKind task : stage.tasks) {
      const double items = TaskItemCount(task, profile);
      if (items <= 0.0) continue;
      stage_accesses +=
          TaskAccessCounts(task, stage.device, profile, config, spec_, flags)
              .mem_accesses *
          items;
    }
    accesses.push_back(stage_accesses);
  }

  // Load-proportional CPU core sharing (mirrors the executor; Mega-KV's
  // static thread assignment keeps the even split).
  if (!config.static_cpu_assignment) {
    double total_single_core_us = 0.0;
    for (size_t s = 0; s < stages.size(); ++s) {
      if (stages[s].device != Device::kCpu) continue;
      total_single_core_us += base_times[s] * stages[s].cpu_cores;
    }
    const double combined =
        total_single_core_us / static_cast<double>(spec_.cpu.cores);
    for (size_t s = 0; s < stages.size(); ++s) {
      if (stages[s].device == Device::kCpu) base_times[s] = combined;
    }
  }

  // Eq. 2: interference via the microbenchmarked grid.
  std::vector<double> mu(stages.size(), 1.0);
  if (grid_ != nullptr) {
    double interval = *std::max_element(base_times.begin(), base_times.end());
    for (int iter = 0; iter < 3; ++iter) {
      double cpu_intensity = 0.0;
      double gpu_intensity = 0.0;
      for (size_t s = 0; s < stages.size(); ++s) {
        const double intensity = interval > 0.0 ? accesses[s] / interval : 0.0;
        (stages[s].device == Device::kCpu ? cpu_intensity : gpu_intensity) +=
            intensity;
      }
      double new_interval = 0.0;
      for (size_t s = 0; s < stages.size(); ++s) {
        const bool is_cpu = stages[s].device == Device::kCpu;
        mu[s] = grid_->Lookup(is_cpu ? Device::kCpu : Device::kGpu,
                              is_cpu ? cpu_intensity : gpu_intensity,
                              is_cpu ? gpu_intensity : cpu_intensity);
        new_interval = std::max(new_interval, base_times[s] * mu[s]);
      }
      interval = new_interval;
    }
  }

  for (size_t s = 0; s < stages.size(); ++s) {
    StagePrediction sp;
    sp.device = stages[s].device;
    sp.time_us = base_times[s] * mu[s];
    sp.time_after_steal_us = sp.time_us;
    prediction.stages.push_back(sp);
  }

  // Eq. 3: work stealing on the bottleneck stage.
  if (config.work_stealing && prediction.stages.size() >= 2) {
    size_t bottleneck = 0;
    for (size_t s = 1; s < prediction.stages.size(); ++s) {
      if (prediction.stages[s].time_us >
          prediction.stages[bottleneck].time_us) {
        bottleneck = s;
      }
    }
    StagePrediction& bot = prediction.stages[bottleneck];
    const Device thief =
        bot.device == Device::kCpu ? Device::kGpu : Device::kCpu;
    double thief_busy = 0.0;
    bool thief_exists = false;
    for (const StagePrediction& sp : prediction.stages) {
      if (sp.device == thief) {
        thief_exists = true;
        thief_busy = std::max(thief_busy, sp.time_us);
      }
    }
    if (thief_exists) {
      // Thief-side time for the bottleneck stage's stealable task set:
      // range tasks only, and for a GPU thief only its kernels.
      StageSpec thief_stage;
      thief_stage.device = thief;
      thief_stage.cpu_cores = spec_.cpu.cores;
      for (TaskKind task : stages[bottleneck].tasks) {
        if (thief == Device::kGpu ? IsGpuKernelTask(task)
                                  : IsRangeTask(task)) {
          thief_stage.tasks.push_back(task);
        }
      }
      if (!thief_stage.tasks.empty()) {
        const Micros thief_time =
            StageTimeNoInterference(thief_stage, profile, config, timing_,
                                    flags) /
            kStealEfficiency;
        const Micros after = Eq3StealTime(
            bot.time_us, thief_busy + kStealSetupUs, thief_time);
        if (after < bot.time_us) {
          prediction.stolen_queries = static_cast<uint64_t>(
              static_cast<double>(n) * (bot.time_us - after) /
              std::max(bot.time_us, 1e-9));
          bot.time_after_steal_us = after;
        }
      }
    }
  }

  prediction.t_max = 0.0;
  for (const StagePrediction& sp : prediction.stages) {
    prediction.t_max = std::max(prediction.t_max, sp.time_after_steal_us);
  }
  prediction.throughput_mops =
      ToMops(static_cast<double>(n), prediction.t_max);
  return prediction;
}

Prediction CostModel::Predict(const PipelineConfig& config,
                              const WorkloadProfileData& profile,
                              Micros interval_us) const {
  DIDO_CHECK_GT(interval_us, 0.0);
  // Size the batch so T_max fills the scheduling interval (the paper's
  // periodical scheduling: the batch is whatever accumulated during the
  // previous interval, bounded by the latency requirement).
  uint64_t n = 1024;
  Prediction prediction = PredictAtBatchSize(config, profile, n);
  for (int iter = 0; iter < 8; ++iter) {
    if (prediction.t_max <= 0.0) break;
    const double scale = interval_us / prediction.t_max;
    const uint64_t next =
        ClampBatchSize(static_cast<uint64_t>(static_cast<double>(n) * scale));
    if (next == n) break;
    n = next;
    prediction = PredictAtBatchSize(config, profile, n);
    if (std::fabs(scale - 1.0) < 0.04) break;
  }
  return prediction;
}

}  // namespace dido
