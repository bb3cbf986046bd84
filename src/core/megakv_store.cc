#include "core/megakv_store.h"

#include <algorithm>
#include <cmath>

#include "pipeline/task_costs.h"

namespace dido {

DidoOptions MegaKvCoupledOptions(DidoOptions options) {
  options.adaptive = false;
  options.work_stealing = false;
  options.initial_config = PipelineConfig::MegaKv();
  return options;
}

std::optional<double> MegaKvDiscretePaperMops(
    const std::string& workload_name) {
  // Digitized from the DIDO paper's Fig. 16 (Mega-KV (Discrete) series,
  // measured on 2x E5-2650 v2 + 2x GTX 780; 8-byte-key workloads include
  // DPDK network I/O, the others bypass the network as described in V-E).
  struct Entry {
    const char* name;
    double mops;
  };
  static constexpr Entry kTable[] = {
      {"K8-G100-U", 120.0}, {"K8-G95-U", 100.0},  {"K8-G100-S", 130.0},
      {"K8-G95-S", 108.0},  {"K16-G100-U", 85.0}, {"K16-G95-U", 72.0},
      {"K16-G100-S", 92.0}, {"K16-G95-S", 78.0},  {"K128-G100-U", 14.0},
      {"K128-G95-U", 12.0}, {"K128-G100-S", 15.0}, {"K128-G95-S", 13.0},
  };
  for (const Entry& entry : kTable) {
    if (workload_name == entry.name) return entry.mops;
  }
  return std::nullopt;
}

double EstimateMegaKvDiscreteMops(const WorkloadSpec& workload,
                                  uint64_t num_objects,
                                  Micros latency_cap_us) {
  const DiscreteSystemSpec discrete = DefaultDiscreteSpec();
  ApuSpec spec;
  spec.cpu = discrete.cpu;
  spec.gpu = discrete.gpu;
  // Discrete parts do not share a memory bus: generous DRAM throughput and
  // no cross-device victimization.
  spec.memory.max_accesses_per_us = 900.0;
  spec.memory.cpu_victim_factor = 0.0;
  spec.memory.gpu_victim_factor = 0.0;
  spec.rv_us_per_frame = 0.10;  // DPDK-class network I/O
  spec.sd_us_per_frame = 0.10;
  const TimingModel timing(spec);

  const PipelineConfig config = PipelineConfig::MegaKv();
  const std::vector<StageSpec> stages = config.Stages(spec.cpu.cores);
  const Micros interval = SchedulingIntervalUs(latency_cap_us, stages.size());

  WorkloadProfileData profile;
  profile.get_ratio = workload.get_ratio;
  profile.hit_ratio = 1.0;
  profile.inserts_per_query = 1.0 - workload.get_ratio;
  profile.deletes_per_query = 1.0 - workload.get_ratio;
  profile.avg_key_bytes = workload.dataset.key_size;
  profile.avg_value_bytes = workload.dataset.value_size;
  profile.zipf = workload.distribution == KeyDistribution::kZipf;
  profile.zipf_skew = workload.zipf_skew;
  profile.num_objects = num_objects;
  profile.queries_per_frame = std::max(
      1.0, static_cast<double>(kMaxFramePayload) /
               (8.0 + workload.dataset.key_size +
                (1.0 - workload.get_ratio) * workload.dataset.value_size));

  // Per-query PCIe payload: the CPU ships (hash, job-info) per query to the
  // GPU and receives a location per GET — Mega-KV's job format.
  const double pcie_bytes_per_query = 16.0 + 8.0 * workload.get_ratio;
  const double pcie_us_per_byte =
      1.0 / (discrete.pcie_gbps * 1e3 / 8.0);  // gbps -> bytes/us

  uint64_t n = 4096;
  Micros t_max = 0.0;
  for (int iter = 0; iter < 8; ++iter) {
    profile.batch_n = n;
    t_max = 0.0;
    for (const StageSpec& stage : stages) {
      Micros t = StageTimeNoInterference(stage, profile, config, timing);
      if (stage.device == Device::kGpu) {
        t += 2.0 * discrete.pcie_latency_us +
             static_cast<double>(n) * pcie_bytes_per_query * pcie_us_per_byte;
      }
      t_max = std::max(t_max, t);
    }
    if (t_max <= 0.0) break;
    const double scale = interval / t_max;
    uint64_t next = static_cast<uint64_t>(static_cast<double>(n) * scale);
    next = std::clamp<uint64_t>(next - next % 64, 64, 1 << 20);
    if (next == n || std::fabs(scale - 1.0) < 0.04) {
      n = next;
      break;
    }
    n = next;
  }
  profile.batch_n = n;
  t_max = 0.0;
  for (const StageSpec& stage : stages) {
    Micros t = StageTimeNoInterference(stage, profile, config, timing);
    if (stage.device == Device::kGpu) {
      t += 2.0 * discrete.pcie_latency_us +
           static_cast<double>(n) * pcie_bytes_per_query * pcie_us_per_byte;
    }
    t_max = std::max(t_max, t);
  }
  return ToMops(static_cast<double>(n), t_max);
}

}  // namespace dido
