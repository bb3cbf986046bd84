#ifndef DIDO_MEM_MEMORY_MANAGER_H_
#define DIDO_MEM_MEMORY_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/tally_shards.h"
#include "common/thread_annotations.h"
#include "mem/slab_allocator.h"

namespace dido {

class EpochManager;

// Implements the MM task of the query-processing workflow: memory
// allocation for new key-value objects and eviction when the store is full
// (paper Section III-A, task (3)).  One SET that triggers an eviction yields
// an Insert index operation for the new object and a Delete for the victim
// — the 95:5:5 Search/Insert/Delete mix behind Figure 6.
class MemoryManager {
 public:
  // Allocation counts.  The allocating caller (KvRuntime) tallies
  // allocations, evictions and failed allocations itself, since the
  // results of AllocateObject carry all three, and folds its tally in
  // through Accumulate.  Frees are folded by the epoch deleter, one per
  // object, on whichever thread drains the quarantine.
  struct Counters {
    uint64_t allocations = 0;
    uint64_t evictions = 0;
    uint64_t frees = 0;
    uint64_t failed_allocations = 0;

    Counters& operator+=(const Counters& other) {
      allocations += other.allocations;
      evictions += other.evictions;
      frees += other.frees;
      failed_allocations += other.failed_allocations;
      return *this;
    }
  };

  // Every retired object is quarantined in `epoch`.  Its drain runs this
  // manager's deleter, so `epoch` must be drained or destroyed first.
  MemoryManager(const SlabAllocator::Options& options, EpochManager& epoch)
      : allocator_(options), epoch_(epoch) {}

  // Allocates storage for (key, value).  Under memory pressure it first
  // drains quarantined chunks (TryReclaim); a live object is only evicted
  // when nothing is reclaimable.  Such an eviction does NOT satisfy this
  // allocation: the victim is detached, appended to `evictions` (required
  // non-null) and kOutOfMemory is returned.  The caller must drop the
  // victim's index entry, RetireDetached() it, and retry once the epoch
  // manager has had a chance to drain (see KvRuntime::AllocateWithEviction).
  // kOutOfMemory is therefore retryable, not yet a failed allocation.
  Result<KvObject*> AllocateObject(
      std::string_view key, std::string_view value, uint32_t version,
      std::vector<SlabAllocator::EvictedObject>* evictions)
      DIDO_TRANSFERS_OWNERSHIP;

  // Deferred-reclamation entry point for an object just unlinked from the
  // index (replaced by a SET, removed by a DELETE, or never published
  // because its Insert failed): detaches the object and quarantines it.  A
  // no-op when a concurrent eviction already detached it (the eviction
  // path owns its retirement).
  //
  // Epoch contract: reads the victim's header (detach flag) while the
  // object may concurrently be evicted, so the caller must still hold the
  // pin under which it unlinked the object from the index.
  void RetireObject(KvObject* object) DIDO_REQUIRES_EPOCH;

  // Quarantines an eviction victim that AllocateObject already detached.
  // Call only after the victim's stale index entry has been removed, so no
  // new reader can reach it.
  void RetireDetached(KvObject* object);

  // GET path: sets the CLOCK reference bit, lock-free.  Epoch contract: the
  // object is a probe result that a concurrent eviction may detach and
  // retire, so the caller's pin must span the call.
  void TouchObject(KvObject* object) DIDO_REQUIRES_EPOCH {
    SlabAllocator::Touch(object);
  }

  SlabAllocator& allocator() { return allocator_; }

  // Totals of the folded tallies; as CuckooHashTable::counters().
  Counters counters() const { return totals_.Sum(); }
  void Accumulate(const Counters& tally) DIDO_HOT { totals_.Add(tally); }

 private:
  // Deleter thunk handed to EpochManager::Retire.
  static void ReleaseDetachedThunk(void* ctx, void* ptr);

  SlabAllocator allocator_;
  EpochManager& epoch_;
  TallyShards<Counters> totals_;
};

}  // namespace dido

#endif  // DIDO_MEM_MEMORY_MANAGER_H_
