// Wall-clock micro-benchmarks (google-benchmark) of the epoch-based
// reclamation subsystem: the raw pin/unpin cost on both the registered
// slot path and the shared-refcount fallback, the GET path with and
// without its EpochGuard, KvRuntime::Put on a full store, where every
// SET detaches, unlinks and quarantines a victim, and the direct
// Put/GetValue calls on a store that fits in cache, where the per-call
// counter fold is a visible share of the cost.  These document the
// overhead EBR adds to the store's hot paths.
//
// The store-level benches run 10 repetitions and report their median and
// interquartile range: single runs of them spread too widely to resolve
// the changes they are quoted for.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/cuckoo_hash_table.h"
#include "mem/slab_allocator.h"
#include "pipeline/kv_runtime.h"
#include "sync/epoch.h"
#include "workload/workload.h"

namespace dido {
namespace {

constexpr int kRepetitions = 10;

double InterquartileRange(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&sorted](double q) {
    const double rank = q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<size_t>(rank)];
  };
  return sorted.empty() ? 0.0 : at(0.75) - at(0.25);
}

// Repeated runs reported as their median and interquartile range.
void RepeatedWithSpread(benchmark::internal::Benchmark* bench) {
  bench->Repetitions(kRepetitions)
      ->ComputeStatistics("iqr", &InterquartileRange)
      ->ReportAggregatesOnly(true);
}

// ------------------------------------------------------ pin primitives --

void BM_EpochPin_RegisteredSlot(benchmark::State& state) {
  EpochManager epoch;
  epoch.RegisterCurrentThread();
  for (auto _ : state) {
    EpochManager::PinToken token = epoch.Pin();
    benchmark::DoNotOptimize(token);
    epoch.Unpin(token);
  }
  epoch.UnregisterCurrentThread();
}
BENCHMARK(BM_EpochPin_RegisteredSlot);

void BM_EpochPin_SharedFallback(benchmark::State& state) {
  EpochManager epoch;  // thread never registers: shared-refcount path
  for (auto _ : state) {
    EpochManager::PinToken token = epoch.Pin();
    benchmark::DoNotOptimize(token);
    epoch.Unpin(token);
  }
}
BENCHMARK(BM_EpochPin_SharedFallback);

void BM_EpochRetireReclaim(benchmark::State& state) {
  EpochManager epoch;
  int sink = 0;
  static constexpr auto kNoop = +[](void* /*ctx*/, void* /*ptr*/) {};
  for (auto _ : state) {
    epoch.Retire(&sink, kNoop, nullptr);
    benchmark::DoNotOptimize(epoch.TryReclaim());
  }
  epoch.ReclaimAll();
}
BENCHMARK(BM_EpochRetireReclaim);

// ------------------------------------------------------------ GET path --

// Shared setup: an index + allocator preloaded well under capacity, so the
// benchmark bodies measure pure lookup cost.
struct GetFixture {
  SlabAllocator allocator;
  CuckooHashTable index;
  EpochManager epoch;
  std::vector<std::string> keys;

  static SlabAllocator::Options Slab() {
    SlabAllocator::Options options;
    options.arena_bytes = 32 << 20;
    return options;
  }
  static CuckooHashTable::Options Index() {
    CuckooHashTable::Options options;
    options.num_buckets = 1 << 16;
    return options;
  }

  GetFixture() : allocator(Slab()), index(Index()) {
    keys.reserve(100000);
    for (int i = 0; i < 100000; ++i) {
      keys.push_back("bench-get-key-" + std::to_string(i));
      Result<KvObject*> object =
          allocator.Allocate(keys.back(), "value-payload", 0, nullptr);
      index.Insert(CuckooHashTable::HashKey(keys.back()), *object, nullptr)
          .ok();
    }
  }
};

// Baseline: the pre-EBR read path — index probe with no reclamation
// protection (only safe when nothing is concurrently evicted).
void BM_GetHit_Unprotected(benchmark::State& state) {
  GetFixture f;
  Random rng(7);
  for (auto _ : state) {
    const std::string& key = f.keys[rng.NextBounded(f.keys.size())];
    benchmark::DoNotOptimize(
        f.index.SearchVerified(CuckooHashTable::HashKey(key), key));
  }
}
BENCHMARK(BM_GetHit_Unprotected);

// The production read path: EpochGuard around the probe, slot-pin flavour.
void BM_GetHit_EpochGuardSlot(benchmark::State& state) {
  GetFixture f;
  f.epoch.RegisterCurrentThread();
  Random rng(7);
  for (auto _ : state) {
    const std::string& key = f.keys[rng.NextBounded(f.keys.size())];
    EpochGuard guard(f.epoch);
    benchmark::DoNotOptimize(
        f.index.SearchVerified(CuckooHashTable::HashKey(key), key));
  }
  f.epoch.UnregisterCurrentThread();
}
BENCHMARK(BM_GetHit_EpochGuardSlot);

// Same, from a thread that never registered (shared-refcount fallback).
void BM_GetHit_EpochGuardShared(benchmark::State& state) {
  GetFixture f;
  Random rng(7);
  for (auto _ : state) {
    const std::string& key = f.keys[rng.NextBounded(f.keys.size())];
    EpochGuard guard(f.epoch);
    benchmark::DoNotOptimize(
        f.index.SearchVerified(CuckooHashTable::HashKey(key), key));
  }
}
BENCHMARK(BM_GetHit_EpochGuardShared);

// ---------------------------------------------------- SET (evict) path --

// KvRuntime::Put of distinct keys into a full 2 MiB arena, so every timed
// SET evicts: the store's own detach, unlink, retire, reclaim and retry
// cycle plus the Insert that publishes the new object — the full MM + IN.I
// + IN.D cost of a SET under memory pressure.
void BM_SetEvict_EpochQuarantine(benchmark::State& state) {
  KvRuntime::Options options;
  options.slab.arena_bytes = 2 << 20;
  options.index = GetFixture::Index();
  KvRuntime runtime(options);
  uint64_t i = 0;
  while (runtime.memory().counters().evictions == 0) {
    runtime.Put("bench-set-key-" + std::to_string(i++), "value-payload").ok();
  }
  for (auto _ : state) {
    const std::string key = "bench-set-key-" + std::to_string(i++);
    benchmark::DoNotOptimize(runtime.Put(key, "value-payload").ok());
  }
}
BENCHMARK(BM_SetEvict_EpochQuarantine)->Apply(RepeatedWithSpread);

// ------------------------------------------------- direct API (no evict) --

// The store shape of livebench's zipf-read-inline workload: a 1 MiB arena,
// 2048 index buckets and K16 objects preloaded to 80% of the arena's
// capacity, so a replacement SET never evicts.  Keys are drawn from the
// preloaded set with the workload's Zipf skew.
struct DirectFixture {
  static constexpr size_t kKeys = 1 << 12;  // a power of two

  std::unique_ptr<KvRuntime> runtime;
  std::vector<std::string> keys;
  std::string value;

  DirectFixture() {
    const WorkloadSpec spec =
        MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf);
    KvRuntime::Options options;
    options.slab.arena_bytes = 1 << 20;
    options.index.num_buckets = 1 << 11;
    runtime = std::make_unique<KvRuntime>(options);
    const uint64_t capacity = runtime->memory().allocator().CapacityForObject(
        spec.dataset.key_size, spec.dataset.value_size);
    const uint64_t resident = runtime->Preload(
        spec.dataset,
        static_cast<uint64_t>(static_cast<double>(capacity) * 0.8));
    WorkloadGenerator generator(spec, resident, 7);
    keys.resize(kKeys, std::string(spec.dataset.key_size, '\0'));
    for (std::string& key : keys) {
      MaterializeKey(generator.Next().key_index, spec.dataset.key_size,
                     reinterpret_cast<uint8_t*>(key.data()));
    }
    value.assign(spec.dataset.value_size, 'v');
  }
};

void BM_DirectPut(benchmark::State& state) {
  DirectFixture f;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.runtime->Put(f.keys[i++ & (DirectFixture::kKeys - 1)], f.value)
            .ok());
  }
}
BENCHMARK(BM_DirectPut)->Apply(RepeatedWithSpread);

void BM_DirectGet(benchmark::State& state) {
  DirectFixture f;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.runtime->GetValue(f.keys[i++ & (DirectFixture::kKeys - 1)]));
  }
}
BENCHMARK(BM_DirectGet)->Apply(RepeatedWithSpread);

}  // namespace
}  // namespace dido

BENCHMARK_MAIN();
