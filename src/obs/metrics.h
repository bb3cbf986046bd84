#ifndef DIDO_OBS_METRICS_H_
#define DIDO_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/tally_shards.h"
#include "common/thread_annotations.h"

namespace dido {
namespace obs {

// Unified metrics layer for the DIDO runtime.  DIDO's premise is a runtime
// that can *see* itself (the profiler and cost model re-plan the pipeline
// when observed behaviour drifts from predictions, paper Section IV); this
// registry is the common substrate every subsystem publishes through:
//
//  * Counter    — monotone event count; sharded relaxed atomics so many
//                 pipeline threads can bump one counter without bouncing a
//                 single cache line.
//  * Gauge      — last-written double (degraded flag, queue depth, rolling
//                 prediction error).
//  * AtomicHistogram — fixed log-spaced buckets for latency distributions
//                 (per-stage execute and queue-wait times); recording is a
//                 handful of relaxed atomic adds, quantiles are computed
//                 from a snapshot at exposition time.
//  * Collectors — callbacks sampled at exposition time, for components that
//                 already maintain their own atomic counters (cuckoo index,
//                 memory manager, epoch manager, fault registry, frame
//                 rings) — wiring those in costs nothing on their hot paths.
//
// Exposition: RenderPrometheus() (text format, including the fixed
// `dido_build_info 1` sentinel the CI format check greps for) and
// RenderJson().  Both snapshot under the registry lock; recording never
// takes it.
//
// Builds configured with -DDIDO_METRICS=OFF compile every recording call
// (Counter::Add, Gauge::Set, AtomicHistogram::Record) to nothing, for A/B
// measurement of the observability overhead; registration and exposition
// remain functional and report zeros.

#if defined(DIDO_METRICS_OFF)
inline constexpr bool kMetricsEnabled = false;
#else
inline constexpr bool kMetricsEnabled = true;
#endif

// Monotone event counter.  Add() is wait-free: one relaxed fetch_add on a
// thread-sharded cache line.  Value() sums the shards (approximate while
// writers are in flight, exact at quiescence).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    if constexpr (!kMetricsEnabled) {
      (void)n;
      return;
    }
    // Shard by the thread's dense id: threads share a line only once more
    // than kShards of them count.
    Shard& shard = shards_[ThreadShardId::Get() % kShards];
    // relaxed: monotone statistic; readers only ever need an eventually-
    // consistent sum, nothing is ordered against the counted event.
    // dido-analyze: allow(hot): on this thread's own shard line.
    shard.value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      // relaxed: see Add().
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  std::array<Shard, kShards> shards_;
};

// Last-value gauge (double payload carried in an atomic word).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    if constexpr (!kMetricsEnabled) {
      (void)value;
      return;
    }
    // relaxed: a gauge is a free-standing published sample; no reader
    // infers anything about other memory from it.
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }

  double Value() const {
    // relaxed: see Set().
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

// Concurrent fixed-bucket histogram for latency-like values (microseconds).
// Buckets are log-spaced: kBucketsPerDecade per factor of 10 starting at
// kMinBound, covering 0.5 us .. ~50 s; values outside clamp to the edge
// buckets.  Record() is three relaxed atomic adds; quantile math happens on
// a Snapshot taken at read time.
class AtomicHistogram {
 public:
  static constexpr int kNumBuckets = 96;
  static constexpr int kBucketsPerDecade = 12;
  static constexpr double kMinBound = 0.5;

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double Mean() const;
    // Linear-interpolated quantile estimate; q in [0, 1].
    double Percentile(double q) const;
  };

  AtomicHistogram() = default;
  AtomicHistogram(const AtomicHistogram&) = delete;
  AtomicHistogram& operator=(const AtomicHistogram&) = delete;

  void Record(double value);
  Snapshot TakeSnapshot() const;

  // Inclusive upper bound of `bucket` (the Prometheus `le` edge).
  static double UpperBound(int bucket);
  static int BucketFor(double value);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  // Double bits, accumulated by CAS; contention is bounded because
  // histograms record per batch / per stage, not per query.
  std::atomic<uint64_t> sum_bits_{std::bit_cast<uint64_t>(0.0)};
};

// One sample produced by a collector callback at exposition time.
struct Sample {
  std::string name;       // full metric name, may carry {label="..."} block
  double value = 0.0;
  bool monotone = false;  // rendered as TYPE counter when true, else gauge
};

// Builds `base{k1="v1",k2="v2"}` (labels in the order given).
std::string MetricName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);

// Thread-safe metric registry.  Get*() returns a stable pointer valid for
// the registry's lifetime — call sites resolve once and cache it; recording
// through the returned object never locks.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide default registry.
  static MetricsRegistry& Global();

  // Find-or-create by full name (including any label block).  Re-requesting
  // an existing name with a different metric kind is a programming error
  // (checked).  `help` is kept from the first registration.
  Counter* GetCounter(const std::string& name, std::string_view help = "");
  Gauge* GetGauge(const std::string& name, std::string_view help = "");
  AtomicHistogram* GetHistogram(const std::string& name,
                                std::string_view help = "");

  // Registers a callback sampled at exposition time under `id`
  // (re-registering an id replaces it).  The callback must stay valid until
  // UnregisterCollector(id).
  using CollectorFn = std::function<void(std::vector<Sample>*)>;
  void RegisterCollector(const std::string& id, CollectorFn fn);
  void UnregisterCollector(const std::string& id);

  // Prometheus text exposition (HELP/TYPE per family, histogram
  // _bucket/_sum/_count series, collector samples, and the fixed
  // `dido_build_info 1` sentinel).
  std::string RenderPrometheus() const;

  // JSON exposition: counters/gauges as values, histograms as
  // {count,sum,mean,p50,p95,p99}, collector samples under "collected".
  std::string RenderJson() const;

  // Number of registered metrics (not counting collectors).
  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<AtomicHistogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, Kind kind,
                      std::string_view help) DIDO_EXCLUDES(mu_);
  std::vector<Sample> CollectSamples() const DIDO_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Entry> metrics_ DIDO_GUARDED_BY(mu_);
  std::map<std::string, CollectorFn> collectors_ DIDO_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace dido

#endif  // DIDO_OBS_METRICS_H_
