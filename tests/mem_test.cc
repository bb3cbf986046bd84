// Unit tests for the slab allocator, KV object layout, and memory manager.

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "mem/kv_object.h"
#include "mem/memory_manager.h"
#include "mem/slab_allocator.h"
#include "pipeline/kv_runtime.h"
#include "sync/epoch.h"

namespace dido {
namespace {

SlabAllocator::Options SmallArena(size_t bytes = 1 << 20) {
  SlabAllocator::Options options;
  options.arena_bytes = bytes;
  options.page_bytes = 64 << 10;
  options.min_chunk_bytes = 64;
  return options;
}

// ------------------------------------------------------------- KvObject --

TEST(KvObjectTest, FootprintAddsHeaderAndPayload) {
  EXPECT_EQ(KvObject::FootprintFor(8, 8), sizeof(KvObject) + 16);
  EXPECT_EQ(KvObject::FootprintFor(128, 1024), sizeof(KvObject) + 1152);
}

TEST(KvObjectTest, HeaderIsAligned) { EXPECT_EQ(sizeof(KvObject) % 8, 0u); }

TEST(KvObjectTest, RecordAccessResetsOnNewEpoch) {
  alignas(KvObject) unsigned char storage[sizeof(KvObject) + 16];
  KvObject* object = new (storage) KvObject();
  object->key_size = 8;
  object->value_size = 8;
  EXPECT_EQ(object->RecordAccess(1), 1u);
  EXPECT_EQ(object->RecordAccess(1), 2u);
  EXPECT_EQ(object->RecordAccess(1), 3u);
  EXPECT_EQ(object->RecordAccess(2), 1u);  // new epoch restarts the count
  EXPECT_EQ(object->RecordAccess(2), 2u);
  object->~KvObject();
}

// -------------------------------------------------------- SlabAllocator --

TEST(SlabAllocatorTest, ClassesGrowGeometrically) {
  SlabAllocator allocator(SmallArena());
  ASSERT_GT(allocator.num_classes(), 3u);
  const SlabAllocator::Stats stats = allocator.GetStats();
  for (size_t i = 1; i < stats.classes.size(); ++i) {
    EXPECT_GT(stats.classes[i].chunk_bytes, stats.classes[i - 1].chunk_bytes);
  }
}

TEST(SlabAllocatorTest, ClassForSizePicksSmallestFit) {
  SlabAllocator allocator(SmallArena());
  const int tiny = allocator.ClassForSize(64);
  const int bigger = allocator.ClassForSize(65);
  EXPECT_EQ(tiny, 0);
  EXPECT_EQ(bigger, 1);
  EXPECT_EQ(allocator.ClassForSize((64 << 10) + 1), -1);  // beyond page
}

TEST(SlabAllocatorTest, AllocateStoresKeyAndValue) {
  SlabAllocator allocator(SmallArena());
  Result<KvObject*> object = allocator.Allocate("key-0001", "value", 7, nullptr);
  ASSERT_TRUE(object.ok());
  EXPECT_EQ((*object)->Key(), "key-0001");
  EXPECT_EQ((*object)->Value(), "value");
  EXPECT_EQ((*object)->version, 7u);
  allocator.Free(*object);
}

TEST(SlabAllocatorTest, RejectsOversizedObject) {
  SlabAllocator allocator(SmallArena());
  const std::string huge(128 << 10, 'x');
  Result<KvObject*> object = allocator.Allocate("k", huge, 0, nullptr);
  EXPECT_FALSE(object.ok());
  EXPECT_EQ(object.status().code(), StatusCode::kInvalidArgument);
}

TEST(SlabAllocatorTest, FreeReturnsChunkForReuse) {
  SlabAllocator::Options options = SmallArena(64 << 10);  // one page
  SlabAllocator allocator(options);
  Result<KvObject*> a = allocator.Allocate("kkkkkkkk", "v", 0, nullptr);
  ASSERT_TRUE(a.ok());
  KvObject* first = *a;
  allocator.Free(first);
  Result<KvObject*> b = allocator.Allocate("kkkkkkkk", "w", 0, nullptr);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, first);  // LIFO free list reuses the chunk
}

// One eviction the way MemoryManager drives it, minus the quarantine: the
// CLOCK victim is detached into `evicted`, released at once (no reader can
// hold it here), and the allocation retried into the freed chunk.
Result<KvObject*> AllocateEvicting(SlabAllocator& allocator,
                                   const std::string& key,
                                   SlabAllocator::EvictedObject* evicted) {
  Result<KvObject*> object = allocator.Allocate(
      key, "v", 0, evicted, SlabAllocator::EvictionMode::kDetach);
  if (object.ok() || evicted->stale_ptr == nullptr) return object;
  allocator.ReleaseDetached(evicted->stale_ptr);
  return allocator.Allocate(key, "v", 0, nullptr);
}

TEST(SlabAllocatorTest, EvictsLeastRecentlyUsed) {
  // Arena of exactly one page of 64-byte chunks.
  SlabAllocator::Options options = SmallArena(64 << 10);
  SlabAllocator allocator(options);
  std::vector<KvObject*> objects;
  SlabAllocator::EvictedObject evicted;
  // Fill the page.
  const size_t capacity = (64 << 10) / 64;
  for (size_t i = 0; i < capacity; ++i) {
    const std::string key = "key" + std::to_string(1000 + i);
    Result<KvObject*> object = allocator.Allocate(key, "v", 0, &evicted);
    ASSERT_TRUE(object.ok());
    SlabAllocator::Publish(*object);
    objects.push_back(*object);
  }
  EXPECT_EQ(evicted.stale_ptr, nullptr);
  // The next allocation must evict the least recently used = first object
  // (the hand starts at the page's first chunk, which it handed out first).
  Result<KvObject*> overflow =
      AllocateEvicting(allocator, "overflow", &evicted);
  ASSERT_TRUE(overflow.ok());
  EXPECT_EQ(*overflow, objects[0]);  // the victim's chunk, reused
  EXPECT_EQ(evicted.key, "key1000");
  EXPECT_EQ(evicted.stale_ptr, objects[0]);
}

TEST(SlabAllocatorTest, TouchProtectsFromEviction) {
  SlabAllocator::Options options = SmallArena(64 << 10);
  SlabAllocator allocator(options);
  SlabAllocator::EvictedObject evicted;
  std::vector<KvObject*> objects;
  const size_t capacity = (64 << 10) / 64;
  for (size_t i = 0; i < capacity; ++i) {
    Result<KvObject*> object =
        allocator.Allocate("key" + std::to_string(1000 + i), "v", 0, nullptr);
    ASSERT_TRUE(object.ok());
    SlabAllocator::Publish(*object);
    objects.push_back(*object);
  }
  allocator.Touch(objects[0]);  // set the would-be victim's reference bit
  Result<KvObject*> overflow =
      AllocateEvicting(allocator, "overflow", &evicted);
  ASSERT_TRUE(overflow.ok());
  ASSERT_NE(evicted.stale_ptr, nullptr);
  EXPECT_EQ(evicted.key, "key1001");  // second-oldest evicted instead
}

// Fills a one-page arena of 64-byte chunks with published objects
// key1000.. in chunk order.
std::vector<KvObject*> FillPublishedPage(SlabAllocator& allocator) {
  std::vector<KvObject*> objects;
  const size_t capacity = (64 << 10) / 64;
  for (size_t i = 0; i < capacity; ++i) {
    Result<KvObject*> object =
        allocator.Allocate("key" + std::to_string(1000 + i), "v", 0, nullptr);
    EXPECT_TRUE(object.ok());
    if (!object.ok()) break;
    SlabAllocator::Publish(*object);
    objects.push_back(*object);
  }
  return objects;
}

// Allocates a published replacement object through AllocateEvicting;
// returns the victim's chunk (nullptr when nothing was evicted).
KvObject* EvictOne(SlabAllocator& allocator, const std::string& key) {
  SlabAllocator::EvictedObject evicted;
  Result<KvObject*> object = AllocateEvicting(allocator, key, &evicted);
  EXPECT_TRUE(object.ok());
  if (object.ok()) SlabAllocator::Publish(*object);
  return evicted.stale_ptr;
}

TEST(SlabAllocatorTest, ClockStateFollowsPublishAndTouch) {
  SlabAllocator allocator(SmallArena());
  Result<KvObject*> object = allocator.Allocate("key-0001", "v", 0, nullptr);
  ASSERT_TRUE(object.ok());
  KvObject* o = *object;
  EXPECT_EQ(o->clock.load(), KvObject::kClockUnpublished);
  SlabAllocator::Touch(o);  // a hit cannot publish the object
  EXPECT_EQ(o->clock.load(), KvObject::kClockUnpublished);
  SlabAllocator::Publish(o);
  EXPECT_EQ(o->clock.load(), KvObject::kClockClear);
  SlabAllocator::Touch(o);
  EXPECT_EQ(o->clock.load(), KvObject::kClockReferenced);
  allocator.Free(o);
  EXPECT_EQ(o->clock.load(), KvObject::kClockFree);
}

TEST(SlabAllocatorTest, TouchedObjectSurvivesOneSweep) {
  SlabAllocator allocator(SmallArena(64 << 10));
  const std::vector<KvObject*> objects = FillPublishedPage(allocator);
  ASSERT_EQ(objects.size(), (64u << 10) / 64);
  SlabAllocator::Touch(objects[0]);
  // The first sweep clears objects[0]'s bit and evicts every other chunk
  // in address order; objects[0] goes only when the hand comes back.
  for (size_t i = 1; i < objects.size(); ++i) {
    ASSERT_EQ(EvictOne(allocator, "new" + std::to_string(i)), objects[i]);
  }
  EXPECT_EQ(EvictOne(allocator, "last"), objects[0]);
}

TEST(SlabAllocatorTest, ClockHandWraps) {
  SlabAllocator allocator(SmallArena(64 << 10));
  const std::vector<KvObject*> objects = FillPublishedPage(allocator);
  ASSERT_FALSE(objects.empty());
  for (size_t i = 0; i < objects.size(); ++i) {
    ASSERT_EQ(EvictOne(allocator, "new" + std::to_string(i)), objects[i]);
  }
  // Past the page's last chunk the hand starts over at the first, which now
  // holds the first replacement object.
  SlabAllocator::EvictedObject evicted;
  ASSERT_TRUE(AllocateEvicting(allocator, "wrapped", &evicted).ok());
  EXPECT_EQ(evicted.stale_ptr, objects[0]);
  EXPECT_EQ(evicted.key, "new0");
}

TEST(SlabAllocatorTest, ClockNeverPicksDetachedOrUnpublished) {
  SlabAllocator allocator(SmallArena(64 << 10));
  const size_t capacity = (64 << 10) / 64;
  std::vector<KvObject*> objects;
  for (size_t i = 0; i < capacity; ++i) {
    Result<KvObject*> object =
        allocator.Allocate("key" + std::to_string(1000 + i), "v", 0, nullptr);
    ASSERT_TRUE(object.ok());
    // objects[0] stays unpublished (its index Insert has not run yet).
    if (i != 0) SlabAllocator::Publish(*object);
    objects.push_back(*object);
  }
  ASSERT_TRUE(allocator.TryDetach(objects[1]));
  // Two full sweeps' worth of evictions never touch either chunk.
  for (size_t i = 0; i < 2 * capacity; ++i) {
    KvObject* victim = EvictOne(allocator, "new" + std::to_string(i));
    ASSERT_NE(victim, nullptr);
    ASSERT_NE(victim, objects[0]);
    ASSERT_NE(victim, objects[1]);
  }
  EXPECT_EQ(objects[0]->Key(), "key1000");
  EXPECT_EQ(objects[1]->Key(), "key1001");
  // With only unevictable objects left, allocation fails instead.
  SlabAllocator small(SmallArena(64 << 10));
  for (size_t i = 0; i < capacity; ++i) {
    ASSERT_TRUE(small.Allocate("key" + std::to_string(1000 + i), "v", 0,
                               nullptr).ok());
  }
  SlabAllocator::EvictedObject evicted;
  Result<KvObject*> overflow =
      small.Allocate("overflow", "v", 0, &evicted,
                     SlabAllocator::EvictionMode::kDetach);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(evicted.stale_ptr, nullptr);
  allocator.ReleaseDetached(objects[1]);
}

TEST(SlabAllocatorTest, DetachModeQuarantinesVictimAndFailsAllocation) {
  SlabAllocator::Options options = SmallArena(64 << 10);
  SlabAllocator allocator(options);
  std::vector<KvObject*> objects;
  const size_t capacity = (64 << 10) / 64;
  for (size_t i = 0; i < capacity; ++i) {
    Result<KvObject*> object =
        allocator.Allocate("key" + std::to_string(1000 + i), "v", 0, nullptr);
    ASSERT_TRUE(object.ok());
    SlabAllocator::Publish(*object);
    objects.push_back(*object);
  }
  // Detach-mode overflow: the CLOCK victim is detached and flagged but its
  // storage survives, and the allocation itself reports out-of-memory.
  SlabAllocator::EvictedObject evicted;
  Result<KvObject*> overflow =
      allocator.Allocate("overflow", "v", 0, &evicted,
                         SlabAllocator::EvictionMode::kDetach);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfMemory);
  ASSERT_EQ(evicted.stale_ptr, objects[0]);
  EXPECT_EQ(evicted.key, "key1000");
  EXPECT_NE(evicted.stale_ptr->flags & KvObject::kFlagDetached, 0);
  // The victim's payload is still readable (a concurrent reader could
  // hold it as an index candidate).
  EXPECT_EQ(evicted.stale_ptr->Key(), "key1000");

  const SlabAllocator::Stats stats = allocator.GetStats();
  EXPECT_EQ(stats.detached_objects, 1u);
  EXPECT_EQ(stats.live_objects, capacity - 1);
  EXPECT_EQ(stats.total_evictions, 1u);

  // Touch on a detached object is harmless: the hand never reads its bit.
  allocator.Touch(evicted.stale_ptr);

  // Releasing the detached chunk makes the next allocation succeed and
  // reuse exactly that chunk.
  allocator.ReleaseDetached(evicted.stale_ptr);
  Result<KvObject*> retry = allocator.Allocate("overflow", "v", 0, nullptr);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, objects[0]);
  EXPECT_EQ(allocator.GetStats().detached_objects, 0u);
}

TEST(SlabAllocatorTest, TryDetachWinsExactlyOnce) {
  SlabAllocator allocator(SmallArena());
  Result<KvObject*> object = allocator.Allocate("key-0001", "v", 0, nullptr);
  ASSERT_TRUE(object.ok());
  EXPECT_TRUE(allocator.TryDetach(*object));
  // Second detacher loses: the first owns the object's retirement.
  EXPECT_FALSE(allocator.TryDetach(*object));
  allocator.ReleaseDetached(*object);
}

TEST(SlabAllocatorTest, StatsTrackLiveObjectsAndEvictions) {
  SlabAllocator::Options options = SmallArena(64 << 10);
  SlabAllocator allocator(options);
  const size_t capacity = (64 << 10) / 64;
  for (size_t i = 0; i < capacity + 10; ++i) {
    SlabAllocator::EvictedObject evicted;
    Result<KvObject*> object = AllocateEvicting(
        allocator, "key" + std::to_string(10000 + i), &evicted);
    ASSERT_TRUE(object.ok());
    SlabAllocator::Publish(*object);
  }
  const SlabAllocator::Stats stats = allocator.GetStats();
  EXPECT_EQ(stats.live_objects, capacity);
  EXPECT_EQ(stats.total_evictions, 10u);
}

TEST(SlabAllocatorTest, CapacityForObjectMatchesReality) {
  SlabAllocator::Options options = SmallArena(1 << 20);
  SlabAllocator allocator(options);
  const uint64_t predicted = allocator.CapacityForObject(8, 8);
  uint64_t stored = 0;
  SlabAllocator::EvictedObject evicted;
  while (evicted.stale_ptr == nullptr && stored < predicted + 10) {
    Result<KvObject*> object = AllocateEvicting(
        allocator, "key" + std::to_string(10000000 + stored), &evicted);
    ASSERT_TRUE(object.ok());
    SlabAllocator::Publish(*object);
    ++stored;
  }
  EXPECT_EQ(stored, predicted + 1);  // eviction fires exactly past capacity
}

TEST(SlabAllocatorTest, DifferentClassesDoNotInterfere) {
  SlabAllocator allocator(SmallArena());
  Result<KvObject*> small = allocator.Allocate("k1234567", "v", 0, nullptr);
  Result<KvObject*> large =
      allocator.Allocate("k1234567", std::string(500, 'x'), 0, nullptr);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_NE((*small)->slab_class, (*large)->slab_class);
  EXPECT_EQ((*large)->Value().size(), 500u);
}

// Property test: random allocate/free churn keeps every live object intact.
TEST(SlabAllocatorTest, PropertyChurnPreservesContents) {
  SlabAllocator allocator(SmallArena(512 << 10));
  Random rng(42);
  std::map<std::string, std::pair<KvObject*, std::string>> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.size() > 100 && rng.Bernoulli(0.5)) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(live.size())));
      allocator.Free(it->second.first);
      live.erase(it);
    } else {
      const std::string key = "key" + std::to_string(rng.NextBounded(100000));
      if (live.count(key) != 0) continue;
      const std::string value(rng.NextBounded(200) + 1, 'a' + step % 26);
      Result<KvObject*> object = allocator.Allocate(key, value, 0, nullptr);
      if (!object.ok()) continue;
      live[key] = {*object, value};
    }
  }
  for (const auto& [key, entry] : live) {
    EXPECT_EQ(entry.first->Key(), key);
    EXPECT_EQ(entry.first->Value(), entry.second);
  }
}

TEST(SlabAllocatorTest, ArenaNotMultipleOfHugePageFillsLastPage) {
  // Mapped on huge pages from a 2 MiB boundary and rounded up to 4 MiB;
  // only the arena's own pages are handed out, down to its last byte.
  const size_t arena = (size_t{3} << 20) + (64 << 10);
  SlabAllocator allocator(SmallArena(arena));
  // 9 B key + 967 B value fill a 1 KiB chunk exactly.
  ASSERT_EQ(KvObject::FootprintFor(9, 967), 1024u);
  const uint64_t capacity = allocator.CapacityForObject(9, 967);
  ASSERT_EQ(capacity, arena / 1024);
  const uint8_t* base = nullptr;
  KvObject* last = nullptr;
  for (uint64_t i = 0; i < capacity; ++i) {
    Result<KvObject*> object = allocator.Allocate(
        std::to_string(100000000 + i),
        std::string(967, static_cast<char>('a' + i % 26)), 0, nullptr,
        SlabAllocator::EvictionMode::kFail);
    ASSERT_TRUE(object.ok()) << i;
    if (i == 0) base = reinterpret_cast<const uint8_t*>(*object);
    last = *object;
  }
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % (size_t{2} << 20), 0u);
  EXPECT_EQ(allocator.GetStats().used_bytes, arena);
  EXPECT_EQ(reinterpret_cast<const uint8_t*>(last) + 1024, base + arena);
  EXPECT_EQ(last->Value(),
            std::string(967, static_cast<char>('a' + (capacity - 1) % 26)));
  EXPECT_FALSE(allocator
                   .Allocate("k", std::string(967, 'z'), 0, nullptr,
                             SlabAllocator::EvictionMode::kFail)
                   .ok());
}

#if defined(__SANITIZE_ADDRESS__)
// The mapping's rounded tail past the arena's stale-read slack is poisoned,
// so an overrun is reported as it was for a heap array of that size.
TEST(SlabAllocatorDeathTest, ReadPastArenaSlackIsReported) {
  constexpr size_t kSlack = 512;  // SlabAllocator's stale-read slack
  for (const size_t arena : {size_t{1} << 20, size_t{2} << 20}) {
    SlabAllocator allocator(SmallArena(arena));
    Result<KvObject*> first = allocator.Allocate("k", "v", 0, nullptr);
    ASSERT_TRUE(first.ok());
    // The first chunk handed out starts the arena.
    const volatile uint8_t* base = reinterpret_cast<const uint8_t*>(*first);
    EXPECT_EQ(base[arena + kSlack - 1], 0);
    EXPECT_DEATH((void)base[arena + kSlack], "use-after-poison") << arena;
  }
}
#endif

// A destroyed runtime unmaps its arena and index: repeated 256 MiB stores
// do not pile up resident memory.
uint64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) << 10;
  }
  return 0;
}

TEST(SlabAllocatorTest, RuntimeCyclesReturnTheirMemory) {
  KvRuntime::Options options;
  options.slab.arena_bytes = 256ull << 20;
  options.index.num_buckets = 1 << 15;
  DatasetSpec dataset;
  dataset.key_size = 128;
  dataset.value_size = 1024;
  uint64_t after_first = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    {
      KvRuntime runtime(options);
      // 8 192 objects in 2 KiB chunks touch 16 MiB of the arena.
      ASSERT_EQ(runtime.Preload(dataset, 8192), 8192u);
    }
    if (cycle == 0) after_first = ResidentBytes();
  }
  ASSERT_GT(after_first, 0u);
  EXPECT_LE(ResidentBytes(), after_first + (64ull << 20));
}

// -------------------------------------------------------- MemoryManager --

class MemoryManagerTest : public ::testing::Test {
 protected:
  MemoryManager& Build(const SlabAllocator::Options& options) {
    manager_ = std::make_unique<MemoryManager>(options, epoch_);
    return *manager_;
  }

  std::unique_ptr<MemoryManager> manager_;
  // Declared after manager_: destroyed first, so the drain its destructor
  // performs runs the deleters against a live manager.
  EpochManager epoch_;
};

// KvRuntime::AllocateWithEviction without the index: retires each victim
// AllocateObject detaches, retries until the quarantine drains, and tallies
// allocations, evictions and definitive failures as that caller does.
Result<KvObject*> AllocateRetiring(
    MemoryManager& manager, const std::string& key, const std::string& value,
    std::vector<SlabAllocator::EvictedObject>* evictions,
    MemoryManager::Counters* tally) {
  for (int attempt = 0;; ++attempt) {
    const size_t first_new = evictions->size();
    Result<KvObject*> object =
        manager.AllocateObject(key, value, 0, evictions);
    tally->evictions += evictions->size() - first_new;
    for (size_t v = first_new; v < evictions->size(); ++v) {
      manager.RetireDetached((*evictions)[v].stale_ptr);
    }
    if (object.ok()) {
      tally->allocations += 1;
      return object;
    }
    if (object.status().code() != StatusCode::kOutOfMemory || attempt == 8) {
      tally->failed_allocations += 1;
      return object;
    }
  }
}

// The allocation results carry every count the caller tallies; counters()
// reports the folded tallies.
TEST_F(MemoryManagerTest, CountersTrackOperations) {
  MemoryManager& manager = Build(SmallArena(64 << 10));
  std::vector<SlabAllocator::EvictedObject> evictions;
  MemoryManager::Counters tally;
  const size_t capacity = (64 << 10) / 64;
  for (size_t i = 0; i < capacity + 5; ++i) {
    Result<KvObject*> object = AllocateRetiring(
        manager, "key" + std::to_string(10000 + i), "v", &evictions, &tally);
    ASSERT_TRUE(object.ok());
    SlabAllocator::Publish(*object);
  }
  EXPECT_EQ(evictions.size(), 5u);
  EXPECT_EQ(tally.allocations, capacity + 5);
  EXPECT_EQ(tally.evictions, 5u);
  EXPECT_EQ(tally.failed_allocations, 0u);
  // Nothing reaches the totals until the tally is folded in.
  EXPECT_EQ(manager.counters().allocations, 0u);
  manager.Accumulate(tally);
  EXPECT_EQ(manager.counters().allocations, capacity + 5);
  EXPECT_EQ(manager.counters().evictions, 5u);
  EXPECT_EQ(manager.counters().failed_allocations, 0u);
}

// An object larger than the largest slab class fails definitively (not the
// retryable kOutOfMemory) and is counted once.
TEST_F(MemoryManagerTest, FailedAllocationCounted) {
  MemoryManager& manager = Build(SmallArena());
  std::vector<SlabAllocator::EvictedObject> evictions;
  MemoryManager::Counters tally;
  Result<KvObject*> object = AllocateRetiring(
      manager, "k", std::string(1 << 20, 'x'), &evictions, &tally);
  EXPECT_FALSE(object.ok());
  EXPECT_NE(object.status().code(), StatusCode::kOutOfMemory);
  EXPECT_TRUE(evictions.empty());
  EXPECT_EQ(tally.allocations, 0u);
  EXPECT_EQ(tally.failed_allocations, 1u);
  manager.Accumulate(tally);
  EXPECT_EQ(manager.counters().failed_allocations, 1u);
  EXPECT_EQ(manager.counters().allocations, 0u);
}

// Frees are counted by the epoch deleter: one per retired object, once the
// quarantine drains.
TEST_F(MemoryManagerTest, FreeIncrementsCounter) {
  MemoryManager& manager = Build(SmallArena());
  std::vector<SlabAllocator::EvictedObject> evictions;
  for (int i = 0; i < 3; ++i) {
    Result<KvObject*> object = manager.AllocateObject(
        "key" + std::to_string(10000 + i), "v", 0, &evictions);
    ASSERT_TRUE(object.ok());
    manager.RetireObject(*object);
  }
  EXPECT_EQ(epoch_.ReclaimAll(), 0u);
  EXPECT_EQ(manager.counters().frees, 3u);
}

TEST_F(MemoryManagerTest, RetireObjectEpochModeDefersUntilDrain) {
  MemoryManager& manager = Build(SmallArena(64 << 10));
  std::vector<SlabAllocator::EvictedObject> evictions;
  Result<KvObject*> first =
      manager.AllocateObject("key12345", "v", 0, &evictions);
  ASSERT_TRUE(first.ok());
  manager.RetireObject(*first);
  // Quarantined, not yet freed: the chunk must not be handed out again.
  EXPECT_EQ(manager.counters().frees, 0u);
  EXPECT_EQ(manager.allocator().GetStats().detached_objects, 1u);
  Result<KvObject*> second =
      manager.AllocateObject("key12345", "w", 0, &evictions);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*second, *first);
  // Draining the epoch runs the deleter exactly once and returns the chunk.
  EXPECT_EQ(epoch_.ReclaimAll(), 0u);
  EXPECT_EQ(manager.counters().frees, 1u);
  EXPECT_EQ(manager.allocator().GetStats().detached_objects, 0u);
}

TEST_F(MemoryManagerTest, EpochModeEvictionQuarantinesAndRetries) {
  MemoryManager& manager = Build(SmallArena(64 << 10));
  std::vector<SlabAllocator::EvictedObject> evictions;
  const size_t capacity = (64 << 10) / 64;
  for (size_t i = 0; i < capacity; ++i) {
    Result<KvObject*> object = manager.AllocateObject(
        "key" + std::to_string(10000 + i), "v", 0, &evictions);
    ASSERT_TRUE(object.ok());
    SlabAllocator::Publish(*object);
  }
  ASSERT_TRUE(evictions.empty());

  // Overflow: the victim is quarantined and the allocation must be retried
  // (mirroring KvRuntime::AllocateWithEviction).
  Result<KvObject*> overflow =
      manager.AllocateObject("overflow", "v", 0, &evictions);
  ASSERT_FALSE(overflow.ok());
  ASSERT_EQ(overflow.status().code(), StatusCode::kOutOfMemory);
  ASSERT_EQ(evictions.size(), 1u);
  manager.RetireDetached(evictions[0].stale_ptr);

  bool satisfied = false;
  for (int attempt = 0; attempt < 8 && !satisfied; ++attempt) {
    epoch_.TryReclaim();
    Result<KvObject*> retry =
        manager.AllocateObject("overflow", "v", 0, &evictions);
    if (retry.ok()) {
      satisfied = true;
      break;
    }
    ASSERT_EQ(retry.status().code(), StatusCode::kOutOfMemory);
    // Each failed round may quarantine another victim; keep retiring them
    // or reclamation can never free enough chunks.
    for (size_t v = 1; v < evictions.size(); ++v) {
      manager.RetireDetached(evictions[v].stale_ptr);
    }
    evictions.erase(evictions.begin() + 1, evictions.end());
  }
  EXPECT_TRUE(satisfied);
  epoch_.ReclaimAll();
}

}  // namespace
}  // namespace dido
