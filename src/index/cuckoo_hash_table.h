#ifndef DIDO_INDEX_CUCKOO_HASH_TABLE_H_
#define DIDO_INDEX_CUCKOO_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/mapped_region.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/tally_shards.h"
#include "common/thread_annotations.h"
#include "mem/kv_object.h"

namespace dido {

// Bucketized cuckoo hash table with 16-bit key signatures — the index data
// structure DIDO adopts (paper Section IV-B, citing Pagh & Rodler and the
// Mega-KV / MemC3 design):
//
//  * Two hash choices per key, 8-way buckets.
//  * A slot packs a 16-bit signature and a 48-bit KvObject pointer into one
//    64-bit word, so Search uses a single atomic load per slot and
//    Insert/Delete publish with a single compare-exchange — mirroring the
//    paper's use of OpenCL atomic load / CAS for CPU-GPU-concurrent index
//    access (Section III-B2).
//  * Partial-key cuckoo displacement (MemC3 style): a displaced entry's
//    alternate bucket is derived from its signature, so relocation never
//    re-reads the full key.
//
// Search returns *candidates* whose signatures match; full-key comparison is
// deliberately left to the caller because key comparison (KC) is its own
// pipeline task in DIDO and may run on a different processor than IN.
class CuckooHashTable {
 public:
  struct Options {
    uint64_t num_buckets = 1 << 16;  // rounded up to a power of two
  };

  static constexpr int kSlotsPerBucket = 8;
  static constexpr int kNumHashes = 2;  // hash choices per key

  // Operation counts; probes are reported in buckets touched so the cost
  // model's (sum_i i)/n expected-probe formula can be validated.  Callers
  // own the tally an operation adds to (a batch's measurements, or a local
  // one for a direct call), so the index operations share no counter.
  struct Counters {
    uint64_t searches = 0;
    uint64_t search_buckets_probed = 0;
    uint64_t search_primary_hits = 0;
    uint64_t inserts = 0;
    uint64_t insert_buckets_probed = 0;
    uint64_t displacements = 0;
    uint64_t deletes = 0;
    uint64_t delete_buckets_probed = 0;
    uint64_t failed_inserts = 0;

    Counters& operator+=(const Counters& other);
  };

  explicit CuckooHashTable(const Options& options);

  CuckooHashTable(const CuckooHashTable&) = delete;
  CuckooHashTable& operator=(const CuckooHashTable&) = delete;

  // Canonical key hash used for all index operations.
  static uint64_t HashKey(std::string_view key);

  // --- Index operations (the IN / Search / Insert / Delete tasks) ---

  // Each operation below adds its counts to `tally` when it is non-null;
  // a null tally leaves the call uncounted.

  // Collects up to `max_candidates` objects whose slot signature matches.
  // Returns the number of candidates written to `candidates`.  Epoch
  // contract: the returned pointers are retire-able — the caller must hold
  // a pin from before this call until it is done dereferencing them.
  int Search(uint64_t hash, KvObject** candidates, int max_candidates,
             Counters* tally = nullptr) const DIDO_REQUIRES_EPOCH;

  // Search + full-key verification in one call (convenience path used when
  // IN and KC are fused into the same pipeline stage).  Epoch contract: as
  // Search — dereferences candidate keys and returns a retire-able pointer.
  KvObject* SearchVerified(uint64_t hash, std::string_view key,
                           Counters* tally = nullptr) const
      DIDO_REQUIRES_EPOCH;

  // Publishes `object` under `hash`.  If a live entry with the same
  // signature+key exists it is replaced and the previous object is returned
  // through `replaced` (caller frees it).  Fails with kCapacityFull when the
  // displacement bound is exceeded.  Epoch contract: compares resident
  // entries' full keys (dereferences retire-able objects) while probing.
  Status Insert(uint64_t hash, KvObject* object, KvObject** replaced,
                Counters* tally = nullptr) DIDO_REQUIRES_EPOCH;

  // Removes the entry for `key`; returns the unlinked object through
  // `removed` (caller frees it).  kNotFound if absent.  Epoch contract: as
  // Insert — full-key comparison dereferences resident objects.
  Status Delete(uint64_t hash, std::string_view key, KvObject** removed,
                Counters* tally = nullptr) DIDO_REQUIRES_EPOCH;

  // Removes the entry pointing at exactly `object` (eviction path, where the
  // victim identity is known).  kNotFound if the index no longer holds it.
  Status Remove(uint64_t hash, KvObject* object);

  // Visits every resident object once, in bucket order (the checkpoint
  // snapshot walk).  Concurrent mutations make the cut fuzzy: an entry
  // inserted, replaced or deleted mid-walk may or may not be seen — the
  // durability tier repairs the difference by replaying the oplog records
  // beyond the snapshot boundary in LSN order.  Epoch contract: `fn`
  // receives retire-able pointers, so the caller must hold a pin across the
  // entire walk.
  void ForEach(const std::function<void(const KvObject*)>& fn) const
      DIDO_REQUIRES_EPOCH;

  uint64_t num_buckets() const { return num_buckets_; }
  uint64_t Capacity() const { return num_buckets_ * kSlotsPerBucket; }
  uint64_t LiveEntries() const;
  double LoadFactor() const;

  // Totals of every tally folded in through Accumulate.  KvRuntime folds a
  // batch's tally when the batch retires and a direct call's before the
  // call returns, so operations still in flight are not yet included.  The
  // fold adds into the calling thread's own shard (TallyShards).  DIDO_HOT:
  // every direct call folds, so the hot pass holds the fold to no lock and
  // no read-modify-write.
  Counters counters() const { return totals_.Sum(); }
  void Accumulate(const Counters& tally) DIDO_HOT { totals_.Add(tally); }

 private:
  using Slot = std::atomic<uint64_t>;

  struct Bucket {
    Slot slots[kSlotsPerBucket];
  };

  static constexpr uint64_t kPtrMask = (1ULL << 48) - 1;

  static uint16_t SignatureOf(uint64_t hash);
  static uint64_t PackEntry(uint16_t signature, const KvObject* object);
  static KvObject* EntryObject(uint64_t entry);
  static uint16_t EntrySignature(uint64_t entry);

  uint64_t PrimaryBucket(uint64_t hash) const;
  uint64_t AlternateBucket(uint64_t bucket, uint16_t signature) const;

  // Displaces entries along a cuckoo path to open a slot in bucket `b1` or
  // `b2`.  Returns the freed (bucket, slot) or a kCapacityFull error.
  // Each entry moved is counted into `displacements`.
  Status MakeRoom(uint64_t b1, uint64_t b2, uint64_t* out_bucket,
                  int* out_slot, uint64_t* displacements)
      DIDO_REQUIRES(displacement_mu_);

  const uint64_t num_buckets_;  // power of two
  const uint64_t bucket_mask_;
  // Bucket array: constructed in place on a mapping made once at
  // construction (on huge pages when >= 2 MiB); the slots inside are
  // lock-free atomics published by CAS, deliberately NOT guarded by
  // displacement_mu_ (Search never locks — paper Section III-B2).
  const MappedRegion bucket_region_;
  // dido-analyze: allow(lock): set once at construction, then read-only
  Bucket* const buckets_;
  std::atomic<uint64_t> live_entries_{0};
  Mutex displacement_mu_;  // serializes cuckoo path moves
  // dido-analyze: allow(lock): per-thread shards, synchronizes itself.
  TallyShards<Counters> totals_;
  const Options options_;
};

}  // namespace dido

#endif  // DIDO_INDEX_CUCKOO_HASH_TABLE_H_
