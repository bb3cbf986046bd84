// Wall-clock micro-benchmarks (google-benchmark) of the epoch-based
// reclamation subsystem: the raw pin/unpin cost on both the registered
// slot path and the shared-refcount fallback, the GET path with and
// without its EpochGuard, and the SET-with-eviction path comparing the
// legacy inline-reuse baseline against epoch-mode detach/quarantine.
// These document the overhead EBR adds to the store's hot paths.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "index/cuckoo_hash_table.h"
#include "mem/memory_manager.h"
#include "mem/slab_allocator.h"
#include "sync/epoch.h"

namespace dido {
namespace {

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

// Both variants run distinct keys through an arena small enough that every
// steady-state SET evicts, including the paired index unlink — the full
// MM + IN.D cost of a SET under memory pressure.  2 MiB holds ~16k of
// these objects, so eviction is the steady state almost immediately.
SlabAllocator::Options SetSlab() {
  SlabAllocator::Options options;
  options.arena_bytes = 2 << 20;
  return options;
}

void BM_SetEvict_InlineReuseBaseline(benchmark::State& state) {
  MemoryManager manager(SetSlab());  // legacy mode: no epoch bound
  CuckooHashTable index(GetFixture::Index());
  std::vector<SlabAllocator::EvictedObject> evictions;
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "bench-set-key-" + std::to_string(i++);
    evictions.clear();
    Result<KvObject*> object =
        manager.AllocateObject(key, "value-payload", 0, &evictions);
    for (const SlabAllocator::EvictedObject& victim : evictions) {
      index.Remove(CuckooHashTable::HashKey(victim.key), victim.stale_ptr)
          .ok();
    }
    index.Insert(CuckooHashTable::HashKey(key), *object, nullptr).ok();
    SlabAllocator::Publish(*object);
  }
}

void BM_SetEvict_EpochQuarantine(benchmark::State& state) {
  // Declared before the epoch manager: the drain its destructor performs
  // runs the deleters against a still-live manager.
  MemoryManager manager(SetSlab());
  CuckooHashTable index(GetFixture::Index());
  EpochManager epoch;
  manager.set_epoch_manager(&epoch);
  std::vector<SlabAllocator::EvictedObject> evictions;
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "bench-set-key-" + std::to_string(i++);
    evictions.clear();
    // The KvRuntime::AllocateWithEviction cycle: detach, unlink, retire,
    // reclaim, retry.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const size_t first_new = evictions.size();
      Result<KvObject*> object =
          manager.AllocateObject(key, "value-payload", 0, &evictions);
      for (size_t v = first_new; v < evictions.size(); ++v) {
        index
            .Remove(CuckooHashTable::HashKey(evictions[v].key),
                    evictions[v].stale_ptr)
            .ok();
        manager.RetireDetached(evictions[v].stale_ptr);
      }
      if (object.ok()) {
        index.Insert(CuckooHashTable::HashKey(key), *object, nullptr).ok();
        SlabAllocator::Publish(*object);
        break;
      }
      epoch.TryReclaim();
    }
  }
  epoch.ReclaimAll();
}

BENCHMARK(BM_SetEvict_InlineReuseBaseline);
BENCHMARK(BM_SetEvict_EpochQuarantine);

}  // namespace
}  // namespace dido

BENCHMARK_MAIN();
