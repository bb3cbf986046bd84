// Fig. 10 — DIDO versus the measured-optimal configuration.  For each
// workload the entire configuration space is *executed* (not just
// predicted) and DIDO's cost-model-chosen throughput is expressed relative
// to the best and worst configurations found.
//
// Paper reference: across the seven workloads where DIDO's choice differed
// from the oracle, the optimum was only 6.6% faster on average, while a
// poor configuration can be an order of magnitude slower.

#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "pipeline/pipeline_executor.h"

using namespace dido;

int main() {
  bench::SetupBenchLogging();
  bench::PrintHeader("Fig. 10",
                     "DIDO vs. exhaustive configuration sweep (measured)");

  // The seven workloads Fig. 10 reports.
  const char* kNames[] = {"K16-G50-U",  "K32-G95-U",  "K32-G100-S",
                          "K32-G50-S",  "K128-G95-U", "K128-G95-S",
                          "K128-G50-S"};

  ExperimentOptions experiment = bench::DefaultExperiment();
  experiment.measure_batches = 3;

  std::printf("%-14s %10s %10s %10s %12s %12s\n", "workload", "dido",
              "best", "worst", "dido/best", "best/worst");
  double gap_sum = 0.0;
  int gap_count = 0;
  for (const char* name : kNames) {
    WorkloadSpec workload;
    if (!ParseWorkloadName(name, &workload)) continue;

    // DIDO's adaptive choice.
    const SystemMeasurement dido = MeasureDido(workload, experiment);

    // Exhaustive measured sweep over one shared store (state persists
    // across configurations; each point re-reaches steady state).
    DidoOptions options = MakeExperimentOptions(workload, experiment);
    options.adaptive = false;
    DidoStore store(options, ExperimentSpec(experiment));
    const uint64_t objects = store.Preload(
        workload.dataset, PreloadTarget(workload.dataset,
                                        experiment.arena_bytes,
                                        kPreloadFraction));
    WorkloadSession session(workload, objects, kWorkloadSeed);

    double best = 0.0;
    double worst = 1e30;
    for (const PipelineConfig& config : EnumerateConfigs(true)) {
      const PipelineExecutor::SteadyState steady =
          store.executor().RunSteadyState(config, *session.source,
                                          experiment.measure_batches);
      best = std::max(best, steady.throughput_mops);
      worst = std::min(worst, steady.throughput_mops);
    }
    const double ratio = dido.throughput_mops / best;
    std::printf("%-14s %10.2f %10.2f %10.2f %12.3f %12.1fx\n", name,
                dido.throughput_mops, best, worst, ratio, best / worst);
    gap_sum += std::max(0.0, 1.0 - ratio);
    ++gap_count;
  }
  std::printf("average gap to measured optimum: %.1f%%\n",
              100.0 * gap_sum / std::max(1, gap_count));
  bench::PrintFooter(
      "paper: optimal configs only 6.6% above DIDO on average; worst "
      "configurations are ~an order of magnitude slower than the best");
  return 0;
}
