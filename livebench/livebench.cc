// Live-path benchmark of the DIDO engine.
//
//   livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--source-id <id>] [--spans-out <path-prefix>]
//
// --trace 0 builds and preloads a KvRuntime (several times, for setup_s),
// serves the workload through LivePipeline with the metrics registry
// attached as in production and tracing, drift, calibration, durability and
// fault injection off, then times the direct API.  --trace 1 is the separate
// traced run that yields the per-layer numbers.  NOTES.md in this directory
// explains the workloads, the metric map and the steadiness measures.
//
// Standard output: a {"context": ...} line, then a {"detail": ...} line
// holding every metric the run measured, the correctness-check failures and
// the attempted/failed counts.  run.py picks the result line's metrics out
// of the detail line by the names BENCHMARK.json declares.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "host.h"
#include "live/live_pipeline.h"
#include "net/codec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/kv_runtime.h"
#include "pipeline/pipeline_config.h"
#include "sim/device_spec.h"
#include "sync/epoch.h"
#include "workload/workload.h"

#ifndef LIVEBENCH_BUILD_TYPE
#define LIVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using dido::KvRuntime;
using dido::LivePipeline;
using dido::PipelineConfig;
using dido::QueryBatch;
using dido::TaskKind;
using dido::WorkloadSpec;

// Queries per batch.  The live rates are taken per window (see
// WorkloadDef::window_seconds), not as total / elapsed.
constexpr uint64_t kBatchQueries = 2048;
// Queries retired before the timed interval starts, independent of speed.
constexpr uint64_t kWarmupQueries = 1'500'000;
// After the first segment, a restarted pipeline needs only to refill.
constexpr uint64_t kSegmentWarmupQueries = 200'000;
// Live seconds per segment of an end-to-end run (see RunEndToEnd).
constexpr double kSegmentSeconds = 3.0;
// Wall time per run spent on fresh-process setups, spread over the
// segments, with at least kMinSetupsPerSegment in each; setup_s is their
// kQuietSetupShare quantile.
constexpr double kMinSetupSeconds = 0.5;
constexpr int kMinSetupsPerSegment = 2;
// Direct-API GetValue+Put pairs per run, spread over the segments, and
// pairs per chunk: the latency percentiles are taken per chunk of about a
// millisecond, short enough to fall within one host spell.
constexpr uint64_t kDirectCalls = 1'200'000;
constexpr size_t kDirectChunkPairs = 1'000;
constexpr uint64_t kReadBackKeys = 2'000;
constexpr uint64_t kValidationQueries = 64 * kBatchQueries;

// ----------------------------------------------------------- workloads --

PipelineConfig DidoCut() {
  // [RV,PP,MM,IN.D,IN.I] | [IN.S,KC,RD] | [WR,SD], the cut live_server runs.
  PipelineConfig config;
  config.gpu_begin = 3;
  config.gpu_end = 6;
  config.insert_device = dido::Device::kCpu;
  config.delete_device = dido::Device::kCpu;
  return config;
}

struct WorkloadDef {
  const char* name;
  const char* spec;  // paper notation, parsed by dido::ParseWorkloadName
  PipelineConfig (*config)();
  size_t arena_bytes;
  uint64_t index_buckets;
  // Objects preloaded, as a share of the arena's capacity for the dataset.
  double preload_share;
  // Key space as a multiple of that capacity; 0 means exactly the preloaded
  // keys, so every key is resident.
  double key_space_factor;
  // Arena full and SETs evicting before the timed interval starts.
  bool evicts;
  // Length of the windows the live rates are taken over: about 32 batches
  // at the workload's undisturbed rate, so batch granularity moves a
  // window's rate by ~3%, while the host's undisturbed spells (often only
  // tens of milliseconds) still fill whole windows.
  double window_seconds;
  // CPU of each stage's thread, as an index into the two benchmark CPUs.
  // The bottleneck stage gets a CPU of its own; the others share the
  // second.  Left to the scheduler, three busy stage threads on two CPUs
  // switch between pairings every few seconds, and with them throughput
  // moves between two levels ~40% apart.
  std::array<int, 3> stage_cpu;
};

// Why each workload exists, and why these sizes, is in NOTES.md.  The
// read-only workloads keep 20% arena slack so replacement SETs never evict.
const WorkloadDef kWorkloads[] = {
    {"zipf-read-inline", "K16-G95-S", &PipelineConfig::CpuOnly, 1ull << 20,
     1ull << 11, 0.8, 0.0, false, 0.02, {0, 0, 0}},
    {"zipf-write-evict", "K16-G50-S", &DidoCut, 2ull << 20, 1ull << 12, 1.0,
     2.0, true, 0.04, {0, 1, 1}},
    {"uniform-k128-megakv", "K128-G95-U", &PipelineConfig::MegaKv,
     256ull << 20, 1ull << 15, 0.8, 0.0, false, 0.05, {1, 1, 0}},
};

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

// ------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string JsonNumber(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += dido::obs::TraceJsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " +
           dido::obs::TraceJsonString(m.unit) + "}";
  }
  return out + "}";
}

// ----------------------------------------------------------- helpers --

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Quiet-host statistics.  Other guests on the host slow the benchmark CPUs
// by up to 2x, in spells from tens of milliseconds to tens of seconds, so
// a run's median window tracks how much of the run the host disturbed.
// The 99th-percentile rate (1st for a cost or a latency) of a run's short
// windows or direct-API chunks reads the undisturbed speed and recurs
// across runs far more closely; with 800-2000 windows and ~1200 chunks per
// run, no single sample sets it (NOTES.md has the numbers).  Setups, a few
// dozen per run, take their 5th percentile.
constexpr double kQuietShare = 0.01;
constexpr double kQuietSetupShare = 0.05;
double QuietHigh(const std::vector<double>& samples) {
  return Percentile(samples, 1.0 - kQuietShare);
}
double QuietLow(const std::vector<double>& samples) {
  return Percentile(samples, kQuietShare);
}

std::string KeyBytes(uint64_t index, uint32_t size) {
  std::string key(size, '\0');
  dido::MaterializeKey(index, size, reinterpret_cast<uint8_t*>(key.data()));
  return key;
}

std::string ValueBytes(uint64_t index, uint32_t size, uint32_t version) {
  std::string value(size, '\0');
  dido::MaterializeValue(index, size, version,
                         reinterpret_cast<uint8_t*>(value.data()));
  return value;
}

// "IN.S" -> "in_s".
std::string MetricTaskName(std::string_view task) {
  std::string out;
  for (char c : task) {
    out += c == '.' ? '_' : static_cast<char>(std::tolower(c));
  }
  return out;
}

// ------------------------------------------------------------- store --

struct Store {
  std::unique_ptr<KvRuntime> runtime;
  uint64_t resident = 0;
  uint64_t key_space = 0;
};

Store BuildStore(const WorkloadDef& def, const WorkloadSpec& spec) {
  KvRuntime::Options options;
  options.slab.arena_bytes = def.arena_bytes;
  options.index.num_buckets = def.index_buckets;
  Store store;
  store.runtime = std::make_unique<KvRuntime>(options);
  const uint64_t capacity =
      store.runtime->memory().allocator().CapacityForObject(
          spec.dataset.key_size, spec.dataset.value_size);
  store.resident = store.runtime->Preload(
      spec.dataset,
      static_cast<uint64_t>(static_cast<double>(capacity) * def.preload_share));
  store.key_space =
      def.key_space_factor > 0.0
          ? static_cast<uint64_t>(static_cast<double>(capacity) *
                                  def.key_space_factor)
          : store.resident;
  return store;
}

// Puts one key space's worth of SETs, keys drawn from the workload's own
// distribution, through the direct API.  Object placement, LRU order and,
// on the evicting workload, the arena's turnover then reach steady state by
// a fixed amount of work, not by elapsed time, so a faster build does not
// start its timed interval in a different state.  Returns failed Puts.
uint64_t WarmStore(KvRuntime& runtime, const WorkloadSpec& spec,
                   uint64_t key_space, uint64_t seed) {
  dido::WorkloadGenerator generator(spec, key_space, seed);
  std::string value(spec.dataset.value_size, '\0');
  uint64_t failed = 0;
  for (uint64_t i = 0; i < key_space; ++i) {
    const uint64_t index = generator.Next().key_index;
    dido::MaterializeValue(index, spec.dataset.value_size,
                           0x10000000u + static_cast<uint32_t>(i),
                           reinterpret_cast<uint8_t*>(value.data()));
    if (!runtime.Put(KeyBytes(index, spec.dataset.key_size), value).ok()) {
      ++failed;
    }
  }
  return failed;
}

// --------------------------------------------------------- live runs --

// Everything read at one edge of the timed interval.
struct Snapshot {
  Clock::time_point wall;
  double cpu_seconds = 0.0;
  LivePipeline::Stats stats;
  dido::MemoryManager::Counters mem;
  dido::CuckooHashTable::Counters index;
  dido::EpochManager::Stats epoch;
  livebench::CpuJiffies jiffies;
  std::vector<dido::obs::AtomicHistogram::Snapshot> execute_us;
  std::vector<dido::obs::AtomicHistogram::Snapshot> queue_wait_us;
};

struct StageHistograms {
  std::vector<dido::obs::AtomicHistogram*> execute_us;
  std::vector<dido::obs::AtomicHistogram*> queue_wait_us;
};

// The dido_live_stage_* histograms LivePipeline publishes for `config`.
StageHistograms FindStageHistograms(dido::obs::MetricsRegistry& registry,
                                    const PipelineConfig& config) {
  StageHistograms out;
  const std::vector<dido::StageSpec> stages = config.Stages(4);
  for (size_t i = 0; i < stages.size(); ++i) {
    const std::string stage = std::to_string(i);
    const std::string device(dido::DeviceName(stages[i].device));
    out.execute_us.push_back(registry.GetHistogram(dido::obs::MetricName(
        "dido_live_stage_execute_us", {{"stage", stage}, {"device", device}})));
    out.queue_wait_us.push_back(
        registry.GetHistogram(dido::obs::MetricName(
            "dido_live_stage_queue_wait_us",
            {{"stage", stage}, {"device", device}})));
  }
  return out;
}

Snapshot TakeSnapshot(LivePipeline& pipeline, KvRuntime& runtime,
                      const std::vector<int>& cpus,
                      const StageHistograms& histograms) {
  Snapshot s;
  s.stats = pipeline.Collect();
  s.wall = Clock::now();
  s.cpu_seconds = livebench::ProcessCpuSeconds();
  s.mem = runtime.memory().counters();
  s.index = runtime.index().counters();
  s.epoch = runtime.epoch().stats();
  s.jiffies = livebench::ReadCpuJiffies(cpus);
  for (auto* h : histograms.execute_us) s.execute_us.push_back(h->TakeSnapshot());
  for (auto* h : histograms.queue_wait_us) {
    s.queue_wait_us.push_back(h->TakeSnapshot());
  }
  return s;
}

dido::obs::AtomicHistogram::Snapshot HistogramDelta(
    const dido::obs::AtomicHistogram::Snapshot& a,
    const dido::obs::AtomicHistogram::Snapshot& b) {
  dido::obs::AtomicHistogram::Snapshot d;
  d.count = b.count - a.count;
  d.sum = b.sum - a.sum;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = b.buckets[i] - a.buckets[i];
  }
  return d;
}

// One timed interval of a running pipeline.
struct Interval {
  Snapshot begin;
  Snapshot end;
  std::vector<double> window_qps;
  std::vector<double> window_cpu_ns;  // process CPU ns per query per window
  std::vector<double> quarantined;  // epoch quarantine depth per window
  LivePipeline::Stats final_stats;  // after Stop, for exactly-once
  std::string placement;            // "stage0:cpu ..." as pinned

  uint64_t queries() const { return end.stats.queries - begin.stats.queries; }
  uint64_t sets() const { return end.stats.sets - begin.stats.sets; }
  uint64_t gets() const {
    return (end.stats.hits + end.stats.misses) -
           (begin.stats.hits + begin.stats.misses);
  }
  uint64_t hits() const { return end.stats.hits - begin.stats.hits; }
  uint64_t ingested() const {
    return end.stats.degradation.ingested_queries -
           begin.stats.degradation.ingested_queries;
  }
  // kError responses + shed queries + malformed frames.
  uint64_t errors() const {
    const dido::DegradationStats& a = begin.stats.degradation;
    const dido::DegradationStats& b = end.stats.degradation;
    return (b.error_responses - a.error_responses) +
           (b.shed_queries - a.shed_queries) +
           (b.malformed_frames - a.malformed_frames);
  }
  double cpu_ns_per_query() const {
    return Ratio((end.cpu_seconds - begin.cpu_seconds) * 1e9,
                 static_cast<double>(queries()));
  }
  bool exactly_once() const {
    return final_stats.degradation.ingested_queries -
               final_stats.degradation.shed_queries ==
           final_stats.queries;
  }
};

// Pins the stage threads of a pipeline that just started to their CPUs.
// Start creates the ingress (stage 0) thread first and then one thread per
// later stage, so the stage threads are the first new thread ids in order.
// Returns the placement, or "" when the threads could not be matched.
std::string PlaceStageThreads(const std::vector<int>& before,
                              const WorkloadDef& def,
                              const std::vector<int>& cpus) {
  std::vector<int> started;
  for (int tid : livebench::ThreadIds()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      started.push_back(tid);
    }
  }
  const size_t num_stages = def.config().Stages(4).size();
  if (cpus.empty() || started.size() < num_stages) return "";
  std::string placement;
  for (size_t s = 0; s < num_stages; ++s) {
    const int cpu = cpus[static_cast<size_t>(def.stage_cpu[s]) % cpus.size()];
    if (!livebench::PinThread(started[s], {cpu})) return "";
    if (!placement.empty()) placement += " ";
    placement += "stage" + std::to_string(s) + ":" + std::to_string(cpu);
  }
  return placement;
}

// Serves `source` through a fresh LivePipeline: warms up until
// `warmup_queries` have retired (and, on an evicting workload, until the
// arena evicts), then polls fixed windows for `seconds`, then stops.
Interval ServeTimed(KvRuntime& runtime, const WorkloadDef& def,
                    dido::TrafficSource& source,
                    const LivePipeline::Options& options,
                    const StageHistograms& histograms,
                    const std::vector<int>& cpus, uint64_t warmup_queries,
                    double seconds, bool* ok) {
  dido::obs::TraceCollector* trace = options.trace;
  LivePipeline pipeline(&runtime, def.config(), options);
  Interval interval;
  const std::vector<int> threads_before = livebench::ThreadIds();
  if (!pipeline.Start(&source).ok()) {
    *ok = false;
    return interval;
  }
  interval.placement = PlaceStageThreads(threads_before, def, cpus);
  const Clock::time_point warmup_deadline =
      Clock::now() + std::chrono::seconds(60);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const bool warm = pipeline.Collect().queries >= warmup_queries &&
                      (!def.evicts || runtime.memory().counters().evictions > 0);
    if (warm) break;
    if (Clock::now() > warmup_deadline) {
      std::fprintf(stderr, "warm-up did not reach steady state\n");
      *ok = false;
      break;
    }
  }
  if (trace != nullptr) trace->Clear();  // keep only the timed interval
  interval.begin = TakeSnapshot(pipeline, runtime, cpus, histograms);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(def.window_seconds));
  Clock::time_point next = interval.begin.wall + window;
  Clock::time_point prev_wall = interval.begin.wall;
  double prev_cpu = interval.begin.cpu_seconds;
  uint64_t prev_queries = interval.begin.stats.queries;
  for (;;) {
    std::this_thread::sleep_until(next);
    const LivePipeline::Stats stats = pipeline.Collect();
    const Clock::time_point now = Clock::now();
    const double cpu = livebench::ProcessCpuSeconds();
    const double queries = static_cast<double>(stats.queries - prev_queries);
    interval.window_qps.push_back(queries / Seconds(now - prev_wall));
    // A window that retired nothing has no cost per query; leaving it out
    // keeps a stall from reading as a cost of 0.  Its rate of 0 stays.
    if (queries > 0) {
      interval.window_cpu_ns.push_back((cpu - prev_cpu) * 1e9 / queries);
    }
    prev_cpu = cpu;
    interval.quarantined.push_back(
        static_cast<double>(runtime.epoch().stats().quarantined));
    prev_queries = stats.queries;
    prev_wall = now;
    if (Seconds(now - interval.begin.wall) >= seconds - 1e-3) break;
    next += window;
  }
  interval.end = TakeSnapshot(pipeline, runtime, cpus, histograms);
  if (trace != nullptr) trace->set_enabled(false);
  pipeline.Stop();
  interval.final_stats = pipeline.Collect();
  return interval;
}

// ------------------------------------------------- correctness checks --

// Serves a short slice with responses kept and checks every response
// record against the request stream regenerated from the same seed.  The
// slice runs without admission shedding or watchdog failover so responses
// retire in request order.  Returns the number of mismatches; a slice that
// does not finish within kValidationDeadline counts as one and sets
// `*timed_out`.
constexpr std::chrono::seconds kValidationDeadline{60};
uint64_t ValidateSlice(KvRuntime& runtime, const WorkloadDef& def,
                       const WorkloadSpec& spec, uint64_t key_space,
                       uint64_t seed, dido::obs::MetricsRegistry* registry,
                       uint64_t* checked, bool* timed_out) {
  dido::WorkloadGenerator generator(spec, key_space, seed);
  dido::TrafficSource source(&generator, seed);
  LivePipeline::Options options;
  options.batch_queries = kBatchQueries;
  options.keep_responses = true;
  options.watchdog = false;
  options.admission_timeout_ms = 0;
  options.metrics = registry;
  LivePipeline pipeline(&runtime, def.config(), options);
  if (!pipeline.Start(&source).ok()) return 1;
  const Clock::time_point deadline = Clock::now() + kValidationDeadline;
  *timed_out = false;
  while (pipeline.Collect().queries < kValidationQueries) {
    if (Clock::now() > deadline) {
      *timed_out = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pipeline.Stop();
  const LivePipeline::Stats stats = pipeline.Collect();
  const std::vector<dido::Frame> responses = pipeline.TakeResponses();

  uint64_t mismatches = *timed_out ? 1 : 0;
  if (stats.degradation.ingested_queries - stats.degradation.shed_queries !=
          stats.queries ||
      stats.degradation.shed_queries != 0) {
    ++mismatches;
  }
  std::vector<dido::ResponseView> decoded;
  for (const dido::Frame& frame : responses) {
    size_t offset = 0;
    while (offset < frame.payload.size()) {
      dido::ResponseView view;
      if (!dido::DecodeResponse(frame.payload.data(), frame.payload.size(),
                                &offset, &view)
               .ok()) {
        ++mismatches;
        break;
      }
      decoded.push_back(view);
    }
  }
  if (decoded.size() != stats.queries) ++mismatches;

  // The same seed regenerates the request stream the pipeline ingested.
  dido::WorkloadGenerator mirror_generator(spec, key_space, seed);
  dido::TrafficSource mirror(&mirror_generator, seed);
  size_t next = 0;
  std::vector<dido::RequestView> requests;
  while (next < decoded.size()) {
    dido::Frame frame;
    mirror.FillFrame(&frame, nullptr);
    requests.clear();
    if (!dido::DecodeAllRequests(frame.payload.data(), frame.payload.size(),
                                 &requests)
             .ok()) {
      ++mismatches;
      break;
    }
    for (const dido::RequestView& request : requests) {
      if (next >= decoded.size()) break;
      const dido::ResponseView& response = decoded[next++];
      if (response.op != request.op || response.key != request.key) {
        ++mismatches;
        continue;
      }
      if (request.op == dido::QueryOp::kGet &&
          response.status == dido::ResponseStatus::kOk &&
          response.value.size() != spec.dataset.value_size) {
        ++mismatches;
      }
    }
  }
  *checked = decoded.size();
  return mismatches;
}

// Put -> GetValue on keys drawn from the workload; returns mismatches.
uint64_t ReadBack(KvRuntime& runtime, const WorkloadSpec& spec,
                  uint64_t key_space, uint64_t seed) {
  dido::WorkloadGenerator generator(spec, key_space, seed);
  uint64_t mismatches = 0;
  for (uint64_t i = 0; i < kReadBackKeys; ++i) {
    const uint64_t index = generator.Next().key_index;
    const std::string key = KeyBytes(index, spec.dataset.key_size);
    const std::string value = ValueBytes(
        index, spec.dataset.value_size, 0x40000000u + static_cast<uint32_t>(i));
    if (!runtime.Put(key, value).ok()) {
      ++mismatches;
      continue;
    }
    const dido::Result<std::string> read = runtime.GetValue(key);
    if (!read.ok() || *read != value) ++mismatches;
  }
  return mismatches;
}

// ------------------------------------------------------- direct API --

struct DirectApi {
  // Per-call latencies of every call, and the p50/p99 of each chunk of
  // kDirectChunkPairs pairs.
  std::vector<double> get_us;
  std::vector<double> set_us;
  std::vector<double> get_p50, get_p99, set_p50, set_p99;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Times `pairs` KvRuntime::GetValue and Put calls, one at a time from this
// thread, with keys drawn from the workload's own distribution, and adds
// the slice's chunks to `out`.
void TimeDirectSlice(KvRuntime& runtime, const WorkloadSpec& spec,
                     dido::WorkloadGenerator& generator, uint64_t pairs,
                     DirectApi* out) {
  std::string value(spec.dataset.value_size, '\0');
  const size_t first = out->get_us.size();
  for (uint64_t i = 0; i < pairs; ++i) {
    const std::string get_key =
        KeyBytes(generator.Next().key_index, spec.dataset.key_size);
    const uint64_t set_index = generator.Next().key_index;
    const std::string set_key = KeyBytes(set_index, spec.dataset.key_size);
    dido::MaterializeValue(
        set_index, spec.dataset.value_size,
        0x20000000u + static_cast<uint32_t>(out->attempted / 2),
        reinterpret_cast<uint8_t*>(value.data()));

    const Clock::time_point g0 = Clock::now();
    const dido::Result<std::string> got = runtime.GetValue(get_key);
    const Clock::time_point g1 = Clock::now();
    const dido::Status put = runtime.Put(set_key, value);
    const Clock::time_point s1 = Clock::now();

    out->get_us.push_back(Seconds(g1 - g0) * 1e6);
    out->set_us.push_back(Seconds(s1 - g1) * 1e6);
    out->attempted += 2;
    if (!got.ok() && got.status().code() != dido::StatusCode::kNotFound) {
      ++out->failed;
    }
    if (!put.ok()) ++out->failed;
  }
  for (size_t begin = first; begin + kDirectChunkPairs <= out->get_us.size();
       begin += kDirectChunkPairs) {
    const auto chunk = [begin](const std::vector<double>& all) {
      return std::vector<double>(
          all.begin() + static_cast<long>(begin),
          all.begin() + static_cast<long>(begin + kDirectChunkPairs));
    };
    out->get_p50.push_back(Percentile(chunk(out->get_us), 0.50));
    out->get_p99.push_back(Percentile(chunk(out->get_us), 0.99));
    out->set_p50.push_back(Percentile(chunk(out->set_us), 0.50));
    out->set_p99.push_back(Percentile(chunk(out->set_us), 0.99));
  }
}

double SpaceAmp(KvRuntime& runtime, const WorkloadSpec& spec) {
  const dido::SlabAllocator::Stats slab =
      runtime.memory().allocator().GetStats();
  const double user_bytes = static_cast<double>(runtime.live_objects()) *
                            static_cast<double>(spec.dataset.key_size +
                                                spec.dataset.value_size);
  return Ratio(static_cast<double>(slab.used_bytes), user_bytes);
}

// ---------------------------------------------------------- replay --

struct ReplaySpan {
  uint64_t batch = 0;
  std::string_view name;  // "batch" spans are the parents of the others
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct Replay {
  std::vector<ReplaySpan> spans;
  std::map<std::string, double> task_ns;  // summed span time by name
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t errors = 0;
};

// Single-thread replay of the workload through KvRuntime's public calls, in
// the workload's stage order, with a span around every call.
Replay ReplayBatches(KvRuntime& runtime, const WorkloadDef& def,
                     dido::TrafficSource& source, double seconds, bool* ok) {
  dido::ScopedEpochParticipant participant(runtime.epoch());
  const PipelineConfig config = def.config();
  const std::vector<dido::StageSpec> stages = config.Stages(4);
  Replay out;
  const Clock::time_point origin = Clock::now();
  auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  while (Seconds(Clock::now() - origin) < seconds || out.batches < 16) {
    const uint64_t id = ++out.batches;
    auto batch = std::make_unique<QueryBatch>();
    batch->sequence = id;
    batch->config = config;
    auto span = [&](std::string_view name, Clock::time_point a,
                    Clock::time_point b) {
      out.spans.push_back({id, name, ns(a), ns(b)});
      out.task_ns[std::string(name)] += static_cast<double>(ns(b) - ns(a));
    };

    const Clock::time_point start = Clock::now();
    uint64_t queries = 0;
    while (queries < kBatchQueries) {
      dido::Frame frame;
      queries += source.FillFrame(&frame, nullptr);
      batch->frames.push_back(std::move(frame));
    }
    Clock::time_point t = Clock::now();
    span("RV", start, t);
    if (!runtime.RunPacketProcessing(batch.get()).ok()) *ok = false;
    Clock::time_point u = Clock::now();
    span("PP", t, u);
    for (const dido::StageSpec& stage : stages) {
      for (TaskKind task : stage.tasks) {
        if (task == TaskKind::kRv || task == TaskKind::kPp ||
            task == TaskKind::kSd) {
          continue;
        }
        t = Clock::now();
        runtime.RunRangeTask(task, batch.get(), 0, batch->size());
        u = Clock::now();
        span(dido::TaskKindName(task), t, u);
      }
    }
    t = Clock::now();
    runtime.RetireBatch(batch.get());
    u = Clock::now();
    span("RetireBatch", t, u);
    out.spans.push_back({id, "batch", ns(start), ns(u)});

    const dido::BatchMeasurements& m = batch->measurements;
    out.queries += m.num_queries;
    out.gets += m.gets;
    out.sets += m.sets;
    out.errors += m.error_responses + m.malformed_frames;
  }
  return out;
}

void WriteReplaySpans(const Replay& replay, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const ReplaySpan& s : replay.spans) {
    out << (first ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":"
        << JsonNumber(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":" << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"batch\":" << s.batch << ",\"parent\":"
        << (s.name == "batch" ? "null" : "\"batch\"") << "}}";
    first = false;
  }
  out << "]}\n";
}

// ------------------------------------------------------ isolated loops --

// Median over repetitions of ns per call of `body(i)` for i in [0, n).
template <typename Body>
double NsPerCall(size_t n, Body body) {
  std::vector<double> reps;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < n; ++i) body(i);
    reps.push_back(Seconds(Clock::now() - start) * 1e9 /
                   static_cast<double>(n));
  }
  return Median(reps);
}

struct Isolated {
  double next_ns = 0.0;
  double hash_ns = 0.0;
  double search_ns = 0.0;
  double touch_ns = 0.0;
  double alloc_ns = 0.0;
  bool ok = true;
};

// Substrate costs on the same store, outside the pipeline.
Isolated IsolatedLoops(KvRuntime& runtime, const WorkloadSpec& spec,
                       uint64_t key_space, uint64_t seed) {
  constexpr size_t kKeys = 1 << 16;
  const uint32_t key_size = spec.dataset.key_size;
  Isolated out;
  dido::WorkloadGenerator generator(spec, key_space, seed);
  std::vector<uint64_t> drawn(kKeys);
  out.next_ns =
      NsPerCall(kKeys, [&](size_t i) { drawn[i] = generator.Next().key_index; });

  std::vector<uint8_t> keys(kKeys * key_size);
  for (size_t i = 0; i < kKeys; ++i) {
    dido::MaterializeKey(drawn[i], key_size, &keys[i * key_size]);
  }
  uint64_t sink = 0;
  out.hash_ns = NsPerCall(kKeys, [&](size_t i) {
    sink += dido::Hash64(&keys[i * key_size], key_size);
  });

  // Resident keys of the drawn set, and their objects.
  dido::ScopedEpochParticipant participant(runtime.epoch());
  std::vector<uint64_t> hashes;
  std::vector<dido::KvObject*> objects;
  uint64_t victim = 0;  // a resident key, freed for the allocation loop
  {
    dido::EpochGuard guard(runtime.epoch());
    for (size_t i = 0; i < kKeys; ++i) {
      const std::string_view key(
          reinterpret_cast<const char*>(&keys[i * key_size]), key_size);
      const uint64_t hash = dido::CuckooHashTable::HashKey(key);
      dido::KvObject* object = runtime.index().SearchVerified(hash, key);
      if (object == nullptr) continue;
      if (hashes.empty()) victim = drawn[i];
      hashes.push_back(hash);
      objects.push_back(object);
    }
    if (!hashes.empty()) {
      dido::KvObject* candidates[4];
      out.search_ns = NsPerCall(hashes.size(), [&](size_t i) {
        sink += static_cast<uint64_t>(
            runtime.index().Search(hashes[i], candidates, 4));
      });
      out.touch_ns = NsPerCall(objects.size(), [&](size_t i) {
        runtime.memory().TouchObject(objects[i]);
      });
    }
  }
  if (sink == 42) std::fputs("", stderr);
  if (hashes.empty()) out.ok = false;

  // Allocate+Free of one chunk of the dataset's class.  One resident key is
  // deleted first so the class has a free chunk even on a full arena, and
  // is put back afterwards.
  const std::string key = KeyBytes(victim, key_size);
  const std::string value = ValueBytes(victim, spec.dataset.value_size, 1);
  runtime.DeleteKey(key);
  runtime.epoch().ReclaimAll();
  dido::SlabAllocator& allocator = runtime.memory().allocator();
  out.alloc_ns = NsPerCall(kKeys / 4, [&](size_t i) {
    dido::Result<dido::KvObject*> object = allocator.Allocate(
        key, value, static_cast<uint32_t>(i), nullptr,
        dido::SlabAllocator::EvictionMode::kFail);
    if (!object.ok()) {
      out.ok = false;
      return;
    }
    allocator.Free(*object);
  });
  if (!runtime.Put(key, value).ok()) out.ok = false;
  return out;
}

// ------------------------------------------------------------- main --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string source_id = "unknown";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

struct Outcome {
  std::vector<Metric> metrics;  // everything measured
  // Per-window, per-chunk and per-setup values behind the quantiles, for
  // the detail line.
  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double steal_jiffies = 0.0;
  double steal_share = 0.0;
  std::string placement;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool condition, const std::string& what) {
    if (!condition) check_failures.push_back(what);
  }
  // Host context of the timed intervals the end-to-end numbers come from.
  void NoteHost(const std::vector<Interval>& intervals) {
    placement = intervals.empty() || intervals[0].placement.empty()
                    ? "unpinned"
                    : intervals[0].placement;
    double total = 0.0;
    steal_jiffies = 0.0;
    for (const Interval& i : intervals) {
      steal_jiffies += static_cast<double>(i.end.jiffies.steal -
                                           i.begin.jiffies.steal);
      total += static_cast<double>(i.end.jiffies.total - i.begin.jiffies.total);
    }
    steal_share = Ratio(steal_jiffies, total);
  }
};

// The calling thread's own work (setup, warm-up, the direct API) runs on the
// first benchmark CPU, where stage 0 also runs, so it neither migrates
// between the two CPUs nor reads a store another core just wrote.  Pipeline
// threads inherit the two-CPU mask, restored around each live run.
void PinMain(const std::vector<int>& cpus) {
  if (!cpus.empty()) livebench::PinThread(0, {cpus[0]});
}

// Times one KvRuntime construction + Preload in a child process of this
// binary (see main), so every setup starts from a fresh heap, as a server
// does at start-up, instead of reusing memory an earlier setup freed.
// Returns the seconds, or -1 if the child failed.
double SetupInFreshProcess(const WorkloadDef& def,
                           const std::vector<int>& cpus) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return -1.0;
  exe[len] = '\0';
  const std::string command = std::string("'") + exe + "' --setup-only " +
                              def.name + " " +
                              std::to_string(cpus.empty() ? -1 : cpus[0]);
  FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) return -1.0;
  double seconds = -1.0;
  if (std::fscanf(child, "%lf", &seconds) != 1) seconds = -1.0;
  return pclose(child) == 0 ? seconds : -1.0;
}

template <typename F>
double SumOver(const std::vector<Interval>& intervals, F f) {
  double sum = 0.0;
  for (const Interval& interval : intervals) {
    sum += static_cast<double>(f(interval));
  }
  return sum;
}

void RunEndToEnd(const WorkloadDef& def, const WorkloadSpec& spec,
                 const Args& args, const std::vector<int>& cpus,
                 Outcome* out) {
  dido::obs::MetricsRegistry registry;
  PinMain(cpus);
  std::vector<double> setups;
  Store store = BuildStore(def, spec);
  KvRuntime& runtime = *store.runtime;
  runtime.RegisterMetrics(&registry);
  const uint64_t warm_failures =
      WarmStore(runtime, spec, store.key_space, args.seed + 0x5000);

  uint64_t validated = 0;
  bool validation_timed_out = false;
  const uint64_t slice_mismatches =
      ValidateSlice(runtime, def, spec, store.key_space, args.seed + 0x1000,
                    &registry, &validated, &validation_timed_out);
  out->Check(!validation_timed_out,
             "validation slice: not served within " +
                 std::to_string(kValidationDeadline.count()) + " s");
  out->Check(slice_mismatches == 0,
             "validation slice: " + std::to_string(slice_mismatches) +
                 " mismatches in " + std::to_string(validated) + " responses");

  // The measured phases are interleaved in segments spread over the run,
  // so live windows, direct-API slices and setups all sample the same mix
  // of host states: live serving, then a direct-API slice once the pipeline
  // has stopped, then setups.
  dido::WorkloadGenerator generator(spec, store.key_space, args.seed);
  dido::TrafficSource source(&generator, args.seed);
  dido::WorkloadGenerator direct_keys(spec, store.key_space,
                                      args.seed + 0x2000);
  LivePipeline::Options options;
  options.batch_queries = kBatchQueries;
  options.metrics = &registry;
  const StageHistograms histograms = FindStageHistograms(registry, def.config());
  const int segments =
      std::max(1, static_cast<int>(std::ceil(args.seconds / kSegmentSeconds)));
  std::vector<Interval> live;
  DirectApi direct;
  std::vector<double> chase_ns;  // host memory latency, once per segment
  bool ok = true;
  for (int segment = 0; segment < segments; ++segment) {
    livebench::PinThread(0, cpus);
    live.push_back(ServeTimed(
        runtime, def, source, options, histograms, cpus,
        segment == 0 ? kWarmupQueries : kSegmentWarmupQueries,
        args.seconds / segments, &ok));
    PinMain(cpus);
    out->Check(live.back().exactly_once(),
               "segment " + std::to_string(segment) +
                   ": ingested - shed == retired");
    TimeDirectSlice(runtime, spec, direct_keys, kDirectCalls / segments,
                    &direct);
    chase_ns.push_back(livebench::MemoryChaseNs());
    const Clock::time_point setup_start = Clock::now();
    for (int n = 0; n < kMinSetupsPerSegment ||
                    Seconds(Clock::now() - setup_start) <
                        kMinSetupSeconds / segments;
         ++n) {
      setups.push_back(SetupInFreshProcess(def, cpus));
      out->Check(setups.back() > 0.0, "setup process failed");
    }
  }
  out->Check(ok, "live pipeline start/warm-up");
  out->NoteHost(live);

  const uint64_t read_back =
      ReadBack(runtime, spec, store.key_space, args.seed + 0x3000);
  out->Check(read_back == 0, "direct-API read-back: " +
                                 std::to_string(read_back) + " mismatches");

  std::vector<double> window_qps, window_cpu_ns;
  for (const Interval& interval : live) {
    window_qps.insert(window_qps.end(), interval.window_qps.begin(),
                      interval.window_qps.end());
    window_cpu_ns.insert(window_cpu_ns.end(), interval.window_cpu_ns.begin(),
                         interval.window_cpu_ns.end());
  }
  const double queries = SumOver(live, [](const Interval& i) { return i.queries(); });
  const double live_errors =
      SumOver(live, [](const Interval& i) { return i.errors(); });
  const uint64_t attempted =
      static_cast<uint64_t>(SumOver(live, [](const Interval& i) {
        return i.ingested();
      })) +
      direct.attempted;
  const uint64_t failed = static_cast<uint64_t>(live_errors) + direct.failed;
  out->attempted += attempted;
  out->failed += failed;
  const double error_ratio =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));

  out->Check(!window_cpu_ns.empty(), "no live window retired a query");
  out->Add("throughput_qps", QuietHigh(window_qps), "1/s");
  out->Add("cpu_ns_per_query", QuietLow(window_cpu_ns), "ns");
  out->Add("get_hit_ratio",
           Ratio(SumOver(live, [](const Interval& i) { return i.hits(); }),
                 SumOver(live, [](const Interval& i) { return i.gets(); })),
           "ratio");
  out->Add("success_ratio", 1.0 - error_ratio, "ratio");
  out->Add("space_amp", SpaceAmp(runtime, spec), "x");
  out->Add("setup_s", Percentile(setups, kQuietSetupShare), "s");
  out->Add("get_us.p50", QuietLow(direct.get_p50), "us");
  out->Add("get_us.p99", QuietLow(direct.get_p99), "us");
  out->Add("set_us.p50", QuietLow(direct.set_p50), "us");
  out->Add("set_us.p99", QuietLow(direct.set_p99), "us");

  // Detail only: run-wide medians and totals behind the numbers above.
  out->Add("throughput_qps.median_window", Median(window_qps), "1/s");
  out->Add("setup_s.median", Median(setups), "s");
  out->Add("throughput_qps.mean",
           Ratio(queries, SumOver(live, [](const Interval& i) {
                   return Seconds(i.end.wall - i.begin.wall);
                 })),
           "1/s");
  out->Add("cpu_ns_per_query.mean",
           Ratio(SumOver(live, [](const Interval& i) {
                   return (i.end.cpu_seconds - i.begin.cpu_seconds) * 1e9;
                 }),
                 queries),
           "ns");
  out->Add("get_us.p50.all_calls", Percentile(direct.get_us, 0.50), "us");
  out->Add("get_us.p99.all_calls", Percentile(direct.get_us, 0.99), "us");
  out->Add("set_us.p50.all_calls", Percentile(direct.set_us, 0.50), "us");
  out->Add("set_us.p99.all_calls", Percentile(direct.set_us, 0.99), "us");
  out->Add("error_ratio", error_ratio, "ratio");
  out->Add("error_responses", SumOver(live, [](const Interval& i) {
             return i.end.stats.degradation.error_responses -
                    i.begin.stats.degradation.error_responses;
           }),
           "count");
  out->Add("shed_queries", SumOver(live, [](const Interval& i) {
             return i.end.stats.degradation.shed_queries -
                    i.begin.stats.degradation.shed_queries;
           }),
           "count");
  out->Add("direct_failed", static_cast<double>(direct.failed), "count");
  out->Add("evictions", SumOver(live, [](const Interval& i) {
             return i.end.mem.evictions - i.begin.mem.evictions;
           }),
           "count");
  out->Add("failovers", SumOver(live, [](const Interval& i) {
             return i.final_stats.degradation.failovers;
           }),
           "count");
  out->Add("queries_retired", queries, "count");
  out->Add("segments", static_cast<double>(segments), "count");
  out->Add("setup_count", static_cast<double>(setups.size()), "count");
  out->Add("host.chase_ns", Median(chase_ns), "ns");
  out->Add("resident_objects", static_cast<double>(store.resident), "count");
  out->Add("key_space", static_cast<double>(store.key_space), "count");
  out->Add("validated_responses", static_cast<double>(validated), "count");
  out->Add("warmup_put_failures", static_cast<double>(warm_failures), "count");
  out->series.push_back({"window_qps", window_qps});
  out->series.push_back({"window_cpu_ns", window_cpu_ns});
  out->series.push_back({"setup_s", setups});
  out->series.push_back({"chase_ns", chase_ns});
  out->series.push_back({"get_us.p50_chunks", direct.get_p50});
  out->series.push_back({"get_us.p99_chunks", direct.get_p99});
  out->series.push_back({"set_us.p50_chunks", direct.set_p50});
  out->series.push_back({"set_us.p99_chunks", direct.set_p99});
  runtime.RegisterMetrics(nullptr);
}

void RunTraced(const WorkloadDef& def, const WorkloadSpec& spec,
               const Args& args, const std::vector<int>& cpus,
               Outcome* out) {
  dido::obs::MetricsRegistry registry;
  PinMain(cpus);
  Store store = BuildStore(def, spec);
  KvRuntime& runtime = *store.runtime;
  runtime.RegisterMetrics(&registry);
  WarmStore(runtime, spec, store.key_space, args.seed + 0x5000);
  const PipelineConfig config = def.config();
  const size_t num_stages = config.Stages(4).size();

  dido::WorkloadGenerator generator(spec, store.key_space, args.seed);
  dido::TrafficSource source(&generator, args.seed);
  bool ok = true;

  // Part 0: untraced reference run, same options as the end-to-end run.
  LivePipeline::Options options;
  options.batch_queries = kBatchQueries;
  options.metrics = &registry;
  const StageHistograms histograms = FindStageHistograms(registry, config);
  livebench::PinThread(0, cpus);
  const Interval plain =
      ServeTimed(runtime, def, source, options, histograms, cpus,
                 kWarmupQueries, args.seconds * 0.4, &ok);
  out->Check(plain.exactly_once(), "untraced: ingested - shed == retired");
  out->NoteHost({plain});

  // Part 2: the same pipeline with Options::trace set.
  dido::obs::TraceCollector trace(1 << 18);
  LivePipeline::Options traced_options = options;
  traced_options.trace = &trace;
  const Interval traced =
      ServeTimed(runtime, def, source, traced_options, histograms, cpus,
                 kWarmupQueries / 4, args.seconds * 0.4, &ok);
  out->Check(traced.exactly_once(), "traced: ingested - shed == retired");
  PinMain(cpus);

  // Part 1: single-thread replay through KvRuntime's public calls.
  const Replay replay =
      ReplayBatches(runtime, def, source, args.seconds * 0.2, &ok);
  // Part 3: isolated substrate loops on the same store.
  const Isolated iso =
      IsolatedLoops(runtime, spec, store.key_space, args.seed + 0x4000);
  out->Check(ok && iso.ok, "traced run completed");

  out->attempted +=
      plain.ingested() + traced.ingested() + replay.queries;
  out->failed += plain.errors() + traced.errors() + replay.errors;

  // Per-task replay times.
  const double q = static_cast<double>(replay.queries);
  const double gets = static_cast<double>(replay.gets);
  const double sets = static_cast<double>(replay.sets);
  auto task = [&replay](const char* name) {
    const auto it = replay.task_ns.find(name);
    return it == replay.task_ns.end() ? 0.0 : it->second;
  };
  out->Add("net.rv_ns_per_query", Ratio(task("RV"), q), "ns");
  out->Add("workload.next_ns_isolated", iso.next_ns, "ns");
  out->Add("common.hash_ns_isolated", iso.hash_ns, "ns");
  out->Add("pipeline.pp_ns_per_query", Ratio(task("PP"), q), "ns");
  out->Add("pipeline.mm_ns_per_set", Ratio(task("MM"), sets), "ns");
  out->Add("pipeline.in_i_ns_per_set", Ratio(task("IN.I"), sets), "ns");
  out->Add("pipeline.in_d_ns_per_set", Ratio(task("IN.D"), sets), "ns");
  out->Add("pipeline.in_s_ns_per_get", Ratio(task("IN.S"), gets), "ns");
  out->Add("pipeline.kc_ns_per_get", Ratio(task("KC"), gets), "ns");
  out->Add("pipeline.rd_ns_per_get", Ratio(task("RD"), gets), "ns");
  out->Add("pipeline.wr_ns_per_query", Ratio(task("WR"), q), "ns");
  out->Add("pipeline.retire_ns_per_query", Ratio(task("RetireBatch"), q), "ns");
  double task_sum = 0.0;
  for (const auto& [name, ns] : replay.task_ns) task_sum += ns;
  const double cpu_ns = plain.cpu_ns_per_query();
  out->Add("pipeline.unexplained_ns_per_query", cpu_ns - Ratio(task_sum, q),
           "ns");
  out->Add("cpu_ns_per_query", cpu_ns, "ns");
  out->Add("pipeline.task_sum_ns_per_query", Ratio(task_sum, q), "ns");

  const auto& i0 = plain.begin.index;
  const auto& i1 = plain.end.index;
  out->Add("index.search_probes_per_op",
           Ratio(static_cast<double>(i1.search_buckets_probed -
                                     i0.search_buckets_probed),
                 static_cast<double>(i1.searches - i0.searches)),
           "buckets/op");
  out->Add("index.insert_probes_per_op",
           Ratio(static_cast<double>(i1.insert_buckets_probed -
                                     i0.insert_buckets_probed +
                                     i1.displacements - i0.displacements),
                 static_cast<double>(i1.inserts - i0.inserts)),
           "buckets/op");
  out->Add("index.search_ns_isolated", iso.search_ns, "ns");

  const double live_sets = static_cast<double>(plain.sets());
  out->Add("mem.evictions_per_set",
           Ratio(static_cast<double>(plain.end.mem.evictions -
                                     plain.begin.mem.evictions),
                 live_sets),
           "1/set");
  out->Add("mem.failed_allocs_per_set",
           Ratio(static_cast<double>(plain.end.mem.failed_allocations -
                                     plain.begin.mem.failed_allocations),
                 live_sets),
           "1/set");
  out->Add("mem.touch_ns_isolated", iso.touch_ns, "ns");
  out->Add("mem.alloc_ns_isolated", iso.alloc_ns, "ns");
  out->Add("sync.quarantined_objects", Median(plain.quarantined), "count");
  out->Add("sync.reclaimed_per_retired",
           Ratio(static_cast<double>(plain.end.epoch.reclaimed -
                                     plain.begin.epoch.reclaimed),
                 static_cast<double>(plain.end.epoch.retired -
                                     plain.begin.epoch.retired)),
           "ratio");

  // live: registry histograms over the untraced interval.
  std::vector<double> execute_p50;
  for (size_t s = 0; s < num_stages; ++s) {
    const double p50 =
        HistogramDelta(plain.begin.execute_us[s], plain.end.execute_us[s])
            .Percentile(0.5);
    execute_p50.push_back(p50);
    out->Add("live.stage" + std::to_string(s) + ".execute_us.p50", p50, "us");
    if (num_stages > 1) {
      out->Add("live.stage" + std::to_string(s) + ".queue_wait_us.p50",
               HistogramDelta(plain.begin.queue_wait_us[s],
                              plain.end.queue_wait_us[s])
                   .Percentile(0.5),
               "us");
    }
  }
  if (num_stages > 1) {
    out->Add("live.stage_imbalance",
             Ratio(*std::max_element(execute_p50.begin(), execute_p50.end()),
                   *std::min_element(execute_p50.begin(), execute_p50.end())),
             "x");
  }
  out->Add("live.set_retries_per_set",
           Ratio(static_cast<double>(
                     plain.end.stats.degradation.set_retries -
                     plain.begin.stats.degradation.set_retries),
                 live_sets),
           "1/set");

  // In-situ task times from the traced run's spans, which cover exactly its
  // timed interval.  A stage span's self time is its duration minus its
  // task and admission-wait children, which all lie inside it on its lane.
  if (num_stages > 1) {
    const std::vector<dido::obs::TraceSpan> spans = trace.Snapshot();
    std::map<std::string, double> insitu_us;
    std::map<uint32_t, double> self_us;
    for (const dido::obs::TraceSpan& s : spans) {
      const double dur = static_cast<double>(s.dur_us);
      if (s.category == "stage") self_us[s.tid] += dur;
      if (s.category == "task" || s.name == "admission_wait") {
        self_us[s.tid] -= dur;
      }
      if (s.category == "task") insitu_us[s.name] += dur;
    }
    const double live_q = static_cast<double>(traced.queries());
    auto add_insitu = [&](const std::string& name, double us,
                          double replay_ns) {
      const double per_query = Ratio(us * 1e3, live_q);
      out->Add("live." + name + "_ns_per_query", per_query, "ns");
      out->Add("live." + name + "_gap", Ratio(per_query, replay_ns), "x");
    };
    add_insitu("rv_pp", self_us[0], Ratio(task("RV") + task("PP"), q));
    add_insitu("retire_sd", self_us[static_cast<uint32_t>(num_stages - 1)],
               Ratio(task("RetireBatch"), q));
    for (const auto& [name, us] : insitu_us) {
      add_insitu(MetricTaskName(name), us, Ratio(task(name.c_str()), q));
    }
    out->Add("live.trace_spans", static_cast<double>(spans.size()), "count");
    out->Add("live.trace_dropped", static_cast<double>(trace.dropped()),
             "count");
  }
  out->Add("obs.trace_overhead_ratio",
           Ratio(QuietHigh(traced.window_qps), QuietHigh(plain.window_qps)),
           "x");
  out->Add("throughput_qps.untraced", QuietHigh(plain.window_qps), "1/s");
  out->Add("throughput_qps.traced", QuietHigh(traced.window_qps), "1/s");
  out->Add("replay_batches", static_cast<double>(replay.batches), "count");

  if (!args.spans_out.empty()) {
    WriteReplaySpans(replay, args.spans_out + "-replay.json");
    std::ofstream(args.spans_out + "-live.json") << trace.RenderChromeTrace();
  }
  runtime.RegisterMetrics(nullptr);
}

// `livebench --setup-only <workload> <cpu>`: the child side of
// SetupInFreshProcess.  Prints the setup seconds.
int SetupOnly(const char* workload, int cpu) {
  const WorkloadDef* def = FindWorkload(workload);
  WorkloadSpec spec;
  if (def == nullptr || !dido::ParseWorkloadName(def->spec, &spec)) return 2;
  if (cpu >= 0) livebench::PinThread(0, {cpu});
  const Clock::time_point start = Clock::now();
  const Store store = BuildStore(*def, spec);
  std::printf("%.9f\n", Seconds(Clock::now() - start));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string_view(argv[1]) == "--setup-only") {
    return SetupOnly(argv[2], std::atoi(argv[3]));
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: livebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--source-id <id>] [--spans-out <prefix>]\n");
    return 2;
  }
  const WorkloadDef* def = FindWorkload(args.workload);
  WorkloadSpec spec;
  if (def == nullptr || !dido::ParseWorkloadName(def->spec, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  dido::SetMinLogSeverity(dido::LogSeverity::kWarning);

  // Before any thread exists, so every pipeline thread inherits the mask.
  const std::vector<int> cpus = livebench::PinToTwoCpus();
  const double reference_ms = livebench::ReferenceLoopMs();
  const double reference_chase_ns = livebench::MemoryChaseNs();

  Outcome outcome;
  if (args.trace == 0) {
    RunEndToEnd(*def, spec, args, cpus, &outcome);
  } else {
    RunTraced(*def, spec, args, cpus, &outcome);
  }

  std::printf(
      "{\"context\": {\"workload\": %s, \"spec\": %s, \"config\": %s, "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"cpus\": %s, "
      "\"placement\": %s, \"nproc\": %d, \"build_type\": %s, "
      "\"source_id\": %s, "
      "\"steal_jiffies\": %s, \"steal_share\": %s, "
      "\"reference_loop_ms\": %s, \"reference_chase_ns\": %s}}\n",
      dido::obs::TraceJsonString(def->name).c_str(),
      dido::obs::TraceJsonString(def->spec).c_str(),
      dido::obs::TraceJsonString(def->config().ToString()).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace,
      dido::obs::TraceJsonString(livebench::CpuListString(cpus)).c_str(),
      dido::obs::TraceJsonString(outcome.placement).c_str(),
      livebench::OnlineCpus(),
      dido::obs::TraceJsonString(LIVEBENCH_BUILD_TYPE).c_str(),
      dido::obs::TraceJsonString(args.source_id).c_str(),
      JsonNumber(outcome.steal_jiffies).c_str(),
      JsonNumber(outcome.steal_share).c_str(),
      JsonNumber(reference_ms).c_str(),
      JsonNumber(reference_chase_ns).c_str());
  std::printf("{\"detail\": %s, \"series\": {", MetricsJson(outcome.metrics).c_str());
  for (size_t i = 0; i < outcome.series.size(); ++i) {
    std::string values;
    for (double v : outcome.series[i].second) {
      if (!values.empty()) values += ',';
      values += JsonNumber(v);
    }
    std::printf("%s%s: [%s]", i > 0 ? ", " : "",
                dido::obs::TraceJsonString(outcome.series[i].first).c_str(),
                values.c_str());
  }
  std::printf("}, \"check_failures\": [");
  for (size_t i = 0; i < outcome.check_failures.size(); ++i) {
    std::printf("%s%s", i > 0 ? ", " : "",
                dido::obs::TraceJsonString(outcome.check_failures[i]).c_str());
    std::fprintf(stderr, "check failed: %s\n",
                 outcome.check_failures[i].c_str());
  }
  // A failed check counts in `failed` on top of the failed operations.
  std::printf("], \"attempted\": %llu, \"failed\": %llu}\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(
                  outcome.failed + outcome.check_failures.size()));
  const bool correct = outcome.check_failures.empty();
  std::fflush(stdout);
  return correct ? 0 : 1;
}
