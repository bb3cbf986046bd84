#include "mem/memory_manager.h"

#include <utility>

#include "common/logging.h"
#include "faults/fault_registry.h"
#include "sync/epoch.h"

namespace dido {

Result<KvObject*> MemoryManager::AllocateObject(
    std::string_view key, std::string_view value, uint32_t version,
    std::vector<SlabAllocator::EvictedObject>* evictions) {
  DIDO_CHECK(evictions != nullptr);
  FaultHit hit;
  if (DIDO_FAULT_POINT_HIT("mem.alloc.oom", &hit)) {
    // Injected exhaustion reads as the retryable quarantine condition
    // (exercising the caller's retry loop); a window-armed fault outlasting
    // the retry budget drives the give-up path.
    return Status::OutOfMemory("injected allocation failure");
  }
  SlabAllocator::EvictedObject victim;
  Result<KvObject*> result = allocator_.Allocate(
      key, value, version, &victim, SlabAllocator::EvictionMode::kFail);
  if (!result.ok() && result.status().code() == StatusCode::kOutOfMemory) {
    // Drain-first: quarantined chunks (earlier evictions, replaced SET
    // versions) are logically free — returning them is strictly better
    // than sacrificing a live object.  A full drain can take one advance
    // per generation, so try that many rounds before giving up.  A round
    // that reclaimed nothing (empty generation, or cut short by a pinned
    // reader) freed no chunk, so it skips the retry.
    for (uint64_t round = 0; round < EpochManager::kGenerations; ++round) {
      if (epoch_.TryReclaim() == 0) continue;
      result = allocator_.Allocate(key, value, version, &victim,
                                   SlabAllocator::EvictionMode::kFail);
      if (result.ok()) break;
    }
    if (!result.ok() &&
        result.status().code() == StatusCode::kOutOfMemory) {
      // Nothing reclaimed for this class: kDetach still takes a chunk
      // another thread freed meanwhile, else detaches the CLOCK victim for
      // the caller to unlink and retire; this allocation then stays
      // unsatisfied until the quarantine drains.
      result = allocator_.Allocate(key, value, version, &victim,
                                   SlabAllocator::EvictionMode::kDetach);
    }
  }
  if (victim.stale_ptr != nullptr) evictions->push_back(std::move(victim));
  return result;
}

void MemoryManager::RetireObject(KvObject* object) {
  // Winner of the detach race owns the retirement; if an eviction got
  // there first, its path retires the object instead.
  if (!allocator_.TryDetach(object)) return;
  RetireDetached(object);
}

void MemoryManager::RetireDetached(KvObject* object) {
  epoch_.Retire(object, &MemoryManager::ReleaseDetachedThunk, this);
}

void MemoryManager::ReleaseDetachedThunk(void* ctx, void* ptr) {
  auto* manager = static_cast<MemoryManager*>(ctx);
  manager->allocator_.ReleaseDetached(static_cast<KvObject*>(ptr));
  // Counted here (not at Retire) so allocations - frees still equals
  // live + quarantined.
  manager->totals_.Add(Counters{.frees = 1});
}

}  // namespace dido
