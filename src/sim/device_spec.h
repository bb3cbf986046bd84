#ifndef DIDO_SIM_DEVICE_SPEC_H_
#define DIDO_SIM_DEVICE_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dido {

// Which processor a pipeline stage (or a stolen chunk of work) runs on.
enum class Device : uint8_t { kCpu = 0, kGpu = 1 };

std::string_view DeviceName(Device device);

// Static description of one processor of the coupled architecture.  The
// defaults below are calibrated to the AMD A10-7850K Kaveri APU the paper
// evaluates on (Section V-A): 4 CPU cores @ 3.7 GHz, 8 GPU compute units of
// 64 shaders @ 720 MHz, dual-channel DDR3-1333.
struct DeviceSpec {
  std::string name;
  double freq_ghz = 3.7;       // core clock
  int cores = 4;               // CPU cores / GPU compute units
  double ipc = 2.0;            // peak instructions per cycle per core
  int simd_width = 1;          // lanes per instruction (64 on GCN wavefronts)
  int max_waves_per_cu = 1;    // in-flight wavefronts per CU (latency hiding)
  double mem_latency_ns = 70;  // L_M: latency of one DRAM access
  double mem_level_parallelism = 1.0;  // overlapped misses per core (CPU OoO)
  double cache_latency_ns = 6; // L_C: latency of one L2/LLC hit
  size_t cache_bytes = 4ull << 20;  // LLC capacity usable for hot objects
  size_t cache_line_bytes = 64;
  double launch_overhead_us = 0.0;  // per-kernel launch cost (GPU only)
  // Sustained streaming rate of this device against the shared DRAM; bulk
  // line traffic can never run faster than this, no matter how well
  // latency is hidden.
  double stream_bandwidth_gbps = 12.0;
};

// Online-calibration overlay (DESIGN.md §12): bounded per-device multipliers
// the closed observability loop fits from predicted-vs-observed residuals and
// applies on top of the static ApuSpec calibration.  A scale of 1.25 for the
// GPU means "the real device is currently running 25% slower than the spec's
// constants say" — thermal throttling, a co-runner, DVFS.  The generation
// counter increments on every committed re-fit so planners and dashboards can
// tell which calibration a prediction was made under.
struct CalibrationOverlay {
  double cpu_scale = 1.0;
  double gpu_scale = 1.0;
  uint64_t generation = 0;

  double scale(Device d) const {
    return d == Device::kCpu ? cpu_scale : gpu_scale;
  }
  bool identity() const { return cpu_scale == 1.0 && gpu_scale == 1.0; }
};

// Parameters of the shared memory system and cross-device interference.
struct MemorySystemSpec {
  // Aggregate DRAM random-access throughput in accesses per microsecond.
  // Dual-channel DDR3-1333 sustains roughly 10-12 GB/s on random 64 B
  // lines -> ~170 lines/us; contention effects start well below that.
  double max_accesses_per_us = 170.0;
  // Interference asymmetry (paper Section IV: "GPUs can have a higher
  // impact on the performance of CPUs" [Kayiran et al.]).
  double cpu_victim_factor = 1.9;  // how strongly GPU traffic slows the CPU
  double gpu_victim_factor = 0.7;  // how strongly CPU traffic slows the GPU
};

// Full platform description.
struct ApuSpec {
  DeviceSpec cpu;
  DeviceSpec gpu;
  MemorySystemSpec memory;

  // Per-frame unit costs of the fixed CPU tasks RV and SD, measured by the
  // profiling microbenchmark approach the paper uses for them (IV-B).
  // Defaults model Linux-kernel UDP I/O (the paper's DIDO setup); the
  // no-network mode of Fig. 16 replaces them with local-memory reads.
  double rv_us_per_frame = 1.2;
  double sd_us_per_frame = 1.2;

  const DeviceSpec& device(Device d) const {
    return d == Device::kCpu ? cpu : gpu;
  }
};

// The calibrated A10-7850K model used by all experiments.
ApuSpec DefaultKaveriSpec();

// A discrete CPU+GPU platform model (2x Intel E5-2650 v2 + GTX 780 class)
// with an explicit PCIe transfer cost, used by the Fig. 16-18 comparison and
// the PCIe-overhead ablation.
struct DiscreteSystemSpec {
  DeviceSpec cpu;
  DeviceSpec gpu;
  double pcie_gbps = 10.0;          // effective PCIe 3.0 x16 payload rate
  double pcie_latency_us = 8.0;     // per-transfer fixed cost
  double system_price_usd = 5000.0; // paper: ~25x the APU price
  double tdp_watts = 95.0 + 2 * 250.0;
};

DiscreteSystemSpec DefaultDiscreteSpec();

// Price / power constants for the APU platform (Fig. 17 / Fig. 18).
constexpr double kApuPriceUsd = 200.0;  // paper: discrete is ~25x this
constexpr double kApuTdpWatts = 95.0;

}  // namespace dido

#endif  // DIDO_SIM_DEVICE_SPEC_H_
