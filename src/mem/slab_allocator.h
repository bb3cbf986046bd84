#ifndef DIDO_MEM_SLAB_ALLOCATOR_H_
#define DIDO_MEM_SLAB_ALLOCATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mapped_region.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "mem/kv_object.h"

namespace dido {

// memcached-style slab allocator with per-class CLOCK eviction.
//
// A fixed arena is carved into pages; pages are assigned on demand to size
// classes growing by a factor of two.  Each class keeps a free list, the
// list of its pages and a CLOCK hand (MemC3's approximate LRU).  A GET hit
// sets the object's reference bit with one relaxed store and no lock.  When
// the arena is exhausted and the class has no free chunk, the hand walks
// the class's chunks in address order: it clears set reference bits and
// evicts the first published object whose bit is already clear — producing
// exactly the Insert+Delete index-operation pair per SET that the paper's
// Figure 6 analysis builds on.
class SlabAllocator {
 public:
  struct Options {
    size_t arena_bytes = 64ull << 20;   // total key-value memory
    size_t page_bytes = 1ull << 20;     // slab page granularity
    size_t min_chunk_bytes = 64;        // smallest size class
  };

  struct ClassStats {
    size_t chunk_bytes = 0;
    uint64_t pages = 0;
    uint64_t live_objects = 0;
    uint64_t free_chunks = 0;
    uint64_t evictions = 0;
    uint64_t detached = 0;  // chunks awaiting epoch reclamation
  };

  struct Stats {
    size_t arena_bytes = 0;
    size_t used_bytes = 0;  // bytes in pages assigned to classes
    uint64_t live_objects = 0;
    uint64_t total_evictions = 0;
    uint64_t detached_objects = 0;  // across all classes
    std::vector<ClassStats> classes;
  };

  explicit SlabAllocator(const Options& options);
  ~SlabAllocator();

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Identity of an object evicted to satisfy an allocation.  `key` is a
  // copy of the victim's key (taken before its chunk can be reused) and
  // `stale_ptr` is the chunk address the index entry still points at; the
  // caller must issue CuckooHashTable::Remove(HashKey(key), stale_ptr) to
  // drop the stale entry.  `stale_ptr` stays nullptr when the allocation
  // evicted nothing.
  struct EvictedObject {
    std::string key;
    KvObject* stale_ptr = nullptr;
  };

  // What Allocate does with an eviction victim when the arena is full.
  enum class EvictionMode {
    // Take the victim out of eviction, mark it kFlagDetached, and
    // leave its storage intact: the caller owns reclamation (drop the
    // stale index entry, then EpochManager::Retire -> ReleaseDetached).
    // The allocation itself fails with kOutOfMemory — the chunk only
    // becomes reusable once the epoch manager drains it.
    kDetach,
    // Evict nothing: fail with kOutOfMemory and leave the CLOCK state
    // untouched.  Lets the caller drain quarantined chunks (which came
    // from earlier evictions or replacements) before sacrificing a live
    // object — see MemoryManager::AllocateObject's drain-first policy.
    kFail,
  };

  // Allocates and initializes an object for (key, value).  The object
  // starts unpublished: no eviction picks it until Publish().  Fails with
  // kOutOfMemory when the arena is full and the class has no free chunk;
  // in kDetach mode the class's CLOCK hand first detaches a victim into
  // `evicted` (required non-null) so the caller can issue the
  // corresponding index Delete (see EvictionMode).
  Result<KvObject*> Allocate(std::string_view key, std::string_view value,
                             uint32_t version, EvictedObject* evicted,
                             EvictionMode mode = EvictionMode::kFail)
      DIDO_TRANSFERS_OWNERSHIP;

  // Returns the object's chunk to its class free list.  The pointer must
  // come from Allocate and must not be detached.
  void Free(KvObject* object);

  // Makes an allocated object evictable.  Call once the object is
  // reachable through the index (after its Insert), so an eviction always
  // has an index entry to unlink.  Lock-free; the release store pairs with
  // the hand's acquire load, so a hand that sees the object published also
  // sees the Insert that preceded it.
  static void Publish(KvObject* object) {
    object->clock.store(KvObject::kClockClear, std::memory_order_release);
  }

  // Sets the object's reference bit (GET path).  Lock-free: a relaxed load,
  // plus a relaxed store only when the bit is clear, so hits on a hot
  // object do not keep writing its cache line.  Leaves unpublished objects
  // alone; a detached object's bit is never read again.
  static void Touch(KvObject* object) {
    // relaxed: the reference bit is an eviction hint ordering no other
    // data; a hit lost to a concurrent hand sweep only makes the object a
    // candidate one sweep earlier.
    if (object->clock.load(std::memory_order_relaxed) ==
        KvObject::kClockClear) {
      object->clock.store(KvObject::kClockReferenced,
                          std::memory_order_relaxed);
    }
  }

  // Takes a live object out of eviction and marks it detached without
  // releasing its storage.  Returns false when the object was already
  // detached (e.g. by a concurrent eviction) — the caller then must NOT
  // retire it, the earlier detacher owns that.
  bool TryDetach(KvObject* object);

  // Destroys a detached object and returns its chunk to the free list.
  // This is the epoch manager's deleter target: it runs only once every
  // reader that could hold the pointer has unpinned.
  void ReleaseDetached(KvObject* object);

  // Number of size classes.
  size_t num_classes() const DIDO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return classes_.size();
  }

  // Index of the class an object of `footprint` bytes lands in, or -1.
  int ClassForSize(size_t footprint) const DIDO_EXCLUDES(mu_);

  Stats GetStats() const;

  // Estimated number of objects of the given payload sizes the configured
  // arena can hold (used to size key spaces in benchmarks).
  uint64_t CapacityForObject(uint32_t key_size, uint32_t value_size) const;

 private:
  struct SlabClass {
    size_t chunk_bytes = 0;
    size_t chunks_per_page = 0;
    std::vector<uint8_t*> free_chunks;
    std::vector<uint8_t*> pages;  // in assignment order
    size_t hand = 0;              // next chunk the CLOCK hand inspects
    uint64_t live_objects = 0;
    uint64_t evictions = 0;
    uint64_t detached = 0;
  };

  // Assigns one fresh page to `cls`, splitting it into free chunks that
  // are handed out in ascending address order.  Returns false when the
  // arena is exhausted.
  bool GrowClassLocked(SlabClass& cls) DIDO_REQUIRES(mu_);

  // Advances the class's CLOCK hand to the next victim: a published,
  // attached object whose reference bit is clear.  Clears the set bits it
  // passes.  Returns nullptr after two full sweeps found nothing.
  KvObject* ClockVictimLocked(SlabClass& cls) DIDO_REQUIRES(mu_);

  // ClassForSize's body, for callers already under the lock.
  int ClassForSizeLocked(size_t footprint) const DIDO_REQUIRES(mu_);

  const Options options_;
  // Arena storage: mapped once in the constructor (lazily zeroed, on huge
  // pages when >= 2 MiB) and never remapped; chunk contents are handed out
  // under mu_.  kStaleReadSlackBytes past the arena end keep bounded reads
  // through stale index candidates (live concurrent mode) inside it.
  static constexpr size_t kStaleReadSlackBytes = 512;
  // dido-analyze: allow(lock): set once at construction, then read-only
  const MappedRegion arena_;
  size_t arena_offset_ DIDO_GUARDED_BY(mu_) = 0;  // page bump pointer
  std::vector<SlabClass> classes_ DIDO_GUARDED_BY(mu_);
  mutable Mutex mu_;
};

}  // namespace dido

#endif  // DIDO_MEM_SLAB_ALLOCATOR_H_
