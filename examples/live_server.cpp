// Example: running DIDO's pipeline with real threads under wall-clock time,
// with the observability layer wired all the way through.
//
// While the benchmark figures come from the calibrated APU simulation, the
// library also executes pipelines with actual OS threads (one per stage,
// bounded queues in between) — this example serves a read-heavy workload
// live for two seconds per configuration and reports genuine wall-clock
// throughput, then does the same with the static Mega-KV partitioning for
// comparison.
//
// Observability: a MetricsRegistry collects per-stage latency histograms,
// degradation counters and index/heap/epoch collector series; a background
// reporter thread prints a one-line pulse every 500 ms (what you would
// scrape in production).  On exit the example writes
//   live_server_metrics.prom  — Prometheus text exposition
//   live_server_metrics.json  — same data as JSON
//   live_server_trace.json    — Chrome trace_event file (chrome://tracing)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/system_runner.h"
#include "live/live_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace dido;

namespace {

// Background stats reporter: samples the registry like a scraper would and
// prints a compact pulse line.  Runs until `stop` is set.
void ReporterLoop(obs::MetricsRegistry& registry,
                  const std::atomic<bool>& stop) {
  auto counter_value = [&registry](const char* name) {
    return registry.GetCounter(name)->Value();
  };
  auto gauge_value = [&registry](const char* name) {
    return registry.GetGauge(name)->Value();
  };
  uint64_t last_queries = 0;
  while (!stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const uint64_t queries = counter_value("dido_live_queries_total");
    const uint64_t batches = counter_value("dido_live_batches_total");
    const uint64_t shed = counter_value("dido_live_shed_batches_total");
    const double degraded = gauge_value("dido_live_degraded");
    std::printf("  [obs] %8.2f kq/s | %lu batches | %lu shed | %s\n",
                static_cast<double>(queries - last_queries) / 500.0,
                static_cast<unsigned long>(batches),
                static_cast<unsigned long>(shed),
                degraded > 0.5 ? "DEGRADED" : "healthy");
    last_queries = queries;
  }
}

// Serves `source` live for `millis` ms.  `frames_received` counts the
// response frames the client end took off the TX ring.
LivePipeline::Stats ServeLive(KvRuntime& runtime, const PipelineConfig& config,
                              TrafficSource& source, int millis,
                              obs::MetricsRegistry* metrics,
                              obs::TraceCollector* trace,
                              uint64_t* frames_received) {
  // Bounded TX ring with drop-oldest overflow: under overload the server
  // abandons the stalest responses rather than blocking the pipeline.
  FrameRing tx_ring(4096, OverflowPolicy::kDropOldest);
  tx_ring.RegisterMetrics(metrics, "tx");
  LivePipeline::Options options;
  options.batch_queries = 4096;
  options.response_ring = &tx_ring;
  options.metrics = metrics;
  options.trace = trace;
  LivePipeline pipeline(&runtime, config, options);

  // The client end of the TX ring: takes response frames off as the
  // pipeline writes them, so the ring drops only when the client falls
  // behind.  After Stop it drains what is left, then exits.
  std::atomic<bool> stop_client{false};
  *frames_received = 0;
  std::thread client([&] {
    std::vector<Frame> frames;
    while (true) {
      const bool stopping = stop_client.load(std::memory_order_acquire);
      frames.clear();
      *frames_received += tx_ring.PopBatch(256, &frames);
      if (!frames.empty()) continue;
      if (stopping) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  DIDO_CHECK(pipeline.Start(&source).ok());

  std::atomic<bool> stop_reporter{false};
  std::thread reporter(
      [&] { ReporterLoop(*metrics, stop_reporter); });
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  pipeline.Stop();
  stop_client.store(true, std::memory_order_release);
  client.join();
  stop_reporter.store(true, std::memory_order_release);
  reporter.join();
  tx_ring.RegisterMetrics(nullptr, "tx");
  return pipeline.Collect();
}

bool WriteFile(const char* path, const std::string& contents) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  SetMinLogSeverity(LogSeverity::kWarning);
  std::printf("DIDO live-server example (real threads, wall-clock time)\n");
  std::printf("--------------------------------------------------------\n");

  // The unified registry every subsystem publishes into, plus a span
  // collector for the Chrome trace.  Declared before the runtime:
  // components unregister their collectors on destruction, so the registry
  // must outlive everything registered with it.
  obs::MetricsRegistry metrics;
  obs::TraceCollector trace(1 << 16);

  KvRuntime::Options rt;
  rt.slab.arena_bytes = 64 << 20;
  rt.index.num_buckets = 1 << 17;
  KvRuntime runtime(rt);
  const WorkloadSpec workload =
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf);
  const uint64_t objects = runtime.Preload(workload.dataset, 400000);
  std::printf("preloaded %lu objects\n\n", static_cast<unsigned long>(objects));

  runtime.RegisterMetrics(&metrics);

  WorkloadGenerator generator(workload, objects, 9);
  TrafficSource source(&generator);

  // DIDO-style pipeline: [RV,PP,MM,IN.D,IN.I] | [IN.S,KC,RD] | [WR,SD].
  PipelineConfig dido_config;
  dido_config.gpu_begin = 3;
  dido_config.gpu_end = 6;
  dido_config.insert_device = Device::kCpu;
  dido_config.delete_device = Device::kCpu;

  for (const auto& [name, config] :
       {std::pair<const char*, PipelineConfig>{"DIDO-style", dido_config},
        std::pair<const char*, PipelineConfig>{"Mega-KV static",
                                               PipelineConfig::MegaKv()}}) {
    uint64_t frames_received = 0;
    const LivePipeline::Stats stats = ServeLive(
        runtime, config, source, 2000, &metrics, &trace, &frames_received);
    std::printf("%-16s %s\n", name, config.ToString().c_str());
    std::printf("  %.2f s wall, %lu batches, %lu queries, %.2f Mops "
                "(host machine), hit ratio %.2f%%\n",
                stats.wall_seconds, static_cast<unsigned long>(stats.batches),
                static_cast<unsigned long>(stats.queries), stats.mops,
                stats.queries > 0 ? 100.0 * stats.hits /
                                        (stats.hits + stats.misses)
                                  : 0.0);
    const DegradationStats& d = stats.degradation;
    std::printf("  robustness: %lu shed batches (%lu queries), %lu set "
                "retries, %lu error responses,\n"
                "              %lu failovers / %lu repromotions, %lu "
                "degraded batches, %lu malformed frames,\n"
                "              %lu response frames received, %lu "
                "dropped by the TX ring\n\n",
                static_cast<unsigned long>(d.shed_batches),
                static_cast<unsigned long>(d.shed_queries),
                static_cast<unsigned long>(d.set_retries),
                static_cast<unsigned long>(d.error_responses),
                static_cast<unsigned long>(d.failovers),
                static_cast<unsigned long>(d.repromotions),
                static_cast<unsigned long>(d.degraded_batches),
                static_cast<unsigned long>(d.malformed_frames),
                static_cast<unsigned long>(frames_received),
                static_cast<unsigned long>(d.responses_dropped));
  }

  // Final exposition artifacts: what a scrape endpoint / trace dump would
  // serve on a production deployment.
  if (WriteFile("live_server_metrics.prom", metrics.RenderPrometheus()) &&
      WriteFile("live_server_metrics.json", metrics.RenderJson()) &&
      WriteFile("live_server_trace.json", trace.RenderChromeTrace())) {
    std::printf("wrote live_server_metrics.prom / live_server_metrics.json / "
                "live_server_trace.json (%lu spans, %lu dropped)\n",
                static_cast<unsigned long>(trace.size()),
                static_cast<unsigned long>(trace.dropped()));
  } else {
    std::printf("warning: could not write observability artifacts\n");
  }
  std::printf("note: wall-clock Mops reflect this host's CPU, not the APU;\n"
              "      use the bench/ binaries for the paper's calibrated "
              "numbers.\n");
  return 0;
}
