// Micro A/B bench for the observability layer's overhead.
//
// Build the default tree (DIDO_METRICS=ON) and a sibling configured with
// -DDIDO_METRICS=OFF, run this binary from both, and compare the emitted
// BENCH_metrics_live_{on,off}.json records: the acceptance bar is that the
// fully-wired metrics path costs <= 5% live throughput.  The first section
// also times the primitives in a tight loop — in the OFF build they compile
// to empty inline bodies, so the per-op numbers collapse to the loop cost.

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "live/live_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace dido;

namespace {

double NsPerOp(uint64_t ops, std::chrono::steady_clock::time_point start) {
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return ns / static_cast<double>(ops);
}

}  // namespace

int main() {
  bench::SetupBenchLogging();
  bench::PrintHeader("micro: metrics overhead",
                     obs::kMetricsEnabled ? "DIDO_METRICS=ON build"
                                     : "DIDO_METRICS=OFF build");

  // --- primitive costs ---------------------------------------------------
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_counter");
  obs::Gauge* gauge = registry.GetGauge("bench_gauge");
  obs::AtomicHistogram* histogram = registry.GetHistogram("bench_histogram");
  constexpr uint64_t kOps = 20'000'000;

  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) counter->Add(1);
  const double counter_ns = NsPerOp(kOps, t0);

  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) gauge->Set(static_cast<double>(i));
  const double gauge_ns = NsPerOp(kOps, t0);

  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kOps; ++i) {
    histogram->Record(static_cast<double>(i % 1000) + 0.5);
  }
  const double histogram_ns = NsPerOp(kOps, t0);

  std::printf("counter.Add       %8.2f ns/op\n", counter_ns);
  std::printf("gauge.Set         %8.2f ns/op\n", gauge_ns);
  std::printf("histogram.Record  %8.2f ns/op\n", histogram_ns);

  // --- live pipeline with the full observability wiring ------------------
  KvRuntime::Options rt;
  rt.slab.arena_bytes = 32 << 20;
  rt.index.num_buckets = 1 << 16;
  KvRuntime runtime(rt);
  const WorkloadSpec workload =
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf);
  const uint64_t objects = runtime.Preload(workload.dataset, 200000);
  WorkloadGenerator generator(workload, objects, 11);
  TrafficSource source(&generator);
  runtime.RegisterMetrics(&registry);

  PipelineConfig config;
  config.gpu_begin = 3;
  config.gpu_end = 6;
  config.insert_device = Device::kCpu;
  config.delete_device = Device::kCpu;

  LivePipeline::Options options;
  options.batch_queries = 4096;
  options.keep_responses = false;
  options.metrics = &registry;
  LivePipeline pipeline(&runtime, config, options);
  DIDO_CHECK(pipeline.Start(&source).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
  pipeline.Stop();
  const LivePipeline::Stats stats = pipeline.Collect();
  runtime.RegisterMetrics(nullptr);

  // Stage-0 execute percentiles (zeros in the OFF build: recording is
  // compiled out there, which is exactly the A/B point).
  const obs::AtomicHistogram::Snapshot stage0 =
      registry
          .GetHistogram(obs::MetricName("dido_live_stage_execute_us",
                                        {{"stage", "0"}, {"device", "CPU"}}))
          ->TakeSnapshot();

  std::printf("\nlive pipeline (fully wired): %.3f Mops over %.2f s, "
              "stage0 p50 %.1f us p99 %.1f us\n",
              stats.mops, stats.wall_seconds, stage0.Percentile(0.50),
              stage0.Percentile(0.99));

  bench::BenchRecord record;
  record.name =
      obs::kMetricsEnabled ? "metrics_live_on" : "metrics_live_off";
  record.mops = stats.mops;
  record.p50_us = stage0.Percentile(0.50);
  record.p99_us = stage0.Percentile(0.99);
  record.extra = {{"counter_ns", counter_ns},
                  {"gauge_ns", gauge_ns},
                  {"histogram_ns", histogram_ns},
                  {"queries", static_cast<double>(stats.queries)}};
  bench::WriteBenchJson(record);

  bench::PrintFooter(
      "compare BENCH_metrics_live_on.json vs BENCH_metrics_live_off.json "
      "(build with -DDIDO_METRICS=OFF) — target overhead <= 5%");
  return 0;
}
