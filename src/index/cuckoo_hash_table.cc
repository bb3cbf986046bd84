#include "index/cuckoo_hash_table.h"

#include <bit>
#include <new>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "faults/fault_registry.h"

namespace dido {
namespace {

// Cuckoo path bound of one insert before it reports kCapacityFull.
constexpr int kMaxDisplacements = 512;

Random& ThreadRng() {
  thread_local Random rng(0xD1D0);
  return rng;
}

// Where the counts of an uncounted Insert or Delete go.
CuckooHashTable::Counters& Uncounted() {
  thread_local CuckooHashTable::Counters sink;
  return sink;
}

}  // namespace

CuckooHashTable::CuckooHashTable(const Options& options)
    : num_buckets_(std::bit_ceil(std::max<uint64_t>(options.num_buckets, 2))),
      bucket_mask_(num_buckets_ - 1),
      bucket_region_(num_buckets_ * sizeof(Bucket)),
      // Default-initialising a std::atomic zeroes it (C++20), so every slot
      // starts empty; the array needs no destructor run.
      buckets_(new (bucket_region_.data()) Bucket[num_buckets_]),
      options_(options) {
  static_assert(std::is_trivially_destructible_v<Bucket>);
}

uint64_t CuckooHashTable::HashKey(std::string_view key) {
  return Hash64(key);
}

uint16_t CuckooHashTable::SignatureOf(uint64_t hash) {
  return static_cast<uint16_t>(hash >> 48);
}

uint64_t CuckooHashTable::PackEntry(uint16_t signature, const KvObject* object) {
  const uint64_t ptr = reinterpret_cast<uint64_t>(object);
  DIDO_CHECK_EQ(ptr & ~kPtrMask, 0ULL) << "pointer exceeds 48 bits";
  return (static_cast<uint64_t>(signature) << 48) | ptr;
}

KvObject* CuckooHashTable::EntryObject(uint64_t entry) {
  return reinterpret_cast<KvObject*>(entry & kPtrMask);
}

uint16_t CuckooHashTable::EntrySignature(uint64_t entry) {
  return static_cast<uint16_t>(entry >> 48);
}

uint64_t CuckooHashTable::PrimaryBucket(uint64_t hash) const {
  return hash & bucket_mask_;
}

uint64_t CuckooHashTable::AlternateBucket(uint64_t bucket,
                                          uint16_t signature) const {
  // Partial-key cuckoo hashing: the alternate location is derived from the
  // signature only, so it is an involution (alt(alt(b)) == b) and displaced
  // entries never need their full key re-hashed.
  uint64_t delta = Mix64(static_cast<uint64_t>(signature) + 0xC6A4) & bucket_mask_;
  if (delta == 0) delta = 1;
  return bucket ^ delta;
}

int CuckooHashTable::Search(uint64_t hash, KvObject** candidates,
                            int max_candidates, Counters* tally) const {
  const uint16_t signature = SignatureOf(hash);
  const uint64_t b1 = PrimaryBucket(hash);
  const uint64_t b2 = AlternateBucket(b1, signature);
  int found = 0;
  bool primary_hit = false;
  // Both buckets are always read: a signature hit in the primary bucket may
  // be a 16-bit false positive while the real key lives in the alternate, so
  // early exit would risk false misses.  (The cost model still charges the
  // (sum_i i)/n expected probes of an early-exit probe sequence, as the
  // paper prescribes; search_primary_hits lets tests quantify the gap.)
  for (uint64_t b : {b1, b2}) {
    for (int s = 0; s < kSlotsPerBucket && found < max_candidates; ++s) {
      const uint64_t entry =
          buckets_[b].slots[s].load(std::memory_order_acquire);
      if (entry != 0 && EntrySignature(entry) == signature) {
        candidates[found++] = EntryObject(entry);
      }
    }
    if (b == b1) primary_hit = found > 0;
  }
  if (tally != nullptr) {
    tally->searches += 1;
    tally->search_buckets_probed += kNumHashes;
    tally->search_primary_hits += primary_hit ? 1 : 0;
  }
  return found;
}

KvObject* CuckooHashTable::SearchVerified(uint64_t hash, std::string_view key,
                                          Counters* tally) const {
  KvObject* candidates[2 * kSlotsPerBucket];
  const int n = Search(hash, candidates, 2 * kSlotsPerBucket, tally);
  for (int i = 0; i < n; ++i) {
    if (candidates[i]->Key() == key) return candidates[i];
  }
  return nullptr;
}

Status CuckooHashTable::MakeRoom(uint64_t b1, uint64_t b2, uint64_t* out_bucket,
                                 int* out_slot, uint64_t* displacements) {
  // Random-walk displacement starting from b1.  Each step moves one entry to
  // its alternate bucket; progress is bounded by kMaxDisplacements.
  uint64_t bucket = b1;
  int budget = kMaxDisplacements;
  (void)b2;

  // Recursive lambda: frees a slot in `bucket`, returns its index or -1.
  auto free_slot_in = [&](auto&& self, uint64_t b, int depth) -> int {
    // Fast path: an empty slot already exists.
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (buckets_[b].slots[s].load(std::memory_order_acquire) == 0) return s;
    }
    if (budget <= 0 || depth > 64) return -1;
    // Pick a victim and push it to its alternate bucket.
    const int victim_slot =
        static_cast<int>(ThreadRng().NextBounded(kSlotsPerBucket));
    const uint64_t victim_entry =
        buckets_[b].slots[victim_slot].load(std::memory_order_acquire);
    if (victim_entry == 0) return victim_slot;  // raced with a delete: reuse
    const uint64_t alt = AlternateBucket(b, EntrySignature(victim_entry));
    budget -= 1;
    const int alt_slot = self(self, alt, depth + 1);
    if (alt_slot < 0) return -1;
    // Publish the victim at its alternate location first, then clear the
    // source, so a concurrent Search never observes the key as absent.
    // The clear must be a compare-exchange: a deeper level of this very
    // chain may have revisited bucket `b` and changed the victim slot (the
    // random walk is not cycle-free), in which case blindly storing 0 would
    // erase whatever now lives there.  On mismatch, undo the copy and abort
    // the path (the insert falls back to kCapacityFull).
    buckets_[alt].slots[alt_slot].store(victim_entry, std::memory_order_release);
    uint64_t expected = victim_entry;
    if (!buckets_[b].slots[victim_slot].compare_exchange_strong(
            expected, 0, std::memory_order_acq_rel)) {
      buckets_[alt].slots[alt_slot].store(0, std::memory_order_release);
      return -1;
    }
    *displacements += 1;
    return victim_slot;
  };

  const int slot = free_slot_in(free_slot_in, bucket, 0);
  if (slot < 0) {
    return Status::CapacityFull("cuckoo displacement bound exceeded");
  }
  *out_bucket = bucket;
  *out_slot = slot;
  return Status::Ok();
}

Status CuckooHashTable::Insert(uint64_t hash, KvObject* object,
                               KvObject** replaced, Counters* tally) {
  if (tally == nullptr) tally = &Uncounted();
  FaultHit fault;
  if (DIDO_FAULT_POINT_HIT("index.insert.busy", &fault)) {
    // Injected transient contention (a cuckoo path in flight elsewhere):
    // the caller's bounded retry-with-backoff must absorb this.
    return Status::ResourceBusy("injected index contention");
  }
  if (DIDO_FAULT_POINT_HIT("index.insert.capacity_full", &fault)) {
    // Injected displacement-bound exhaustion: terminal for this insert, so
    // it must surface as a failed insert and an error response upstream.
    tally->failed_inserts += 1;
    return Status::CapacityFull("injected displacement exhaustion");
  }
  const uint16_t signature = SignatureOf(hash);
  const uint64_t b1 = PrimaryBucket(hash);
  const uint64_t b2 = AlternateBucket(b1, signature);
  const uint64_t new_entry = PackEntry(signature, object);
  if (replaced != nullptr) *replaced = nullptr;
  tally->inserts += 1;

  // Pass 1: replace a live entry for the same key (SET overwrite semantics).
  for (uint64_t b : {b1, b2}) {
    tally->insert_buckets_probed += 1;
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      uint64_t entry = buckets_[b].slots[s].load(std::memory_order_acquire);
      if (entry == 0 || EntrySignature(entry) != signature) continue;
      KvObject* existing = EntryObject(entry);
      if (existing->Key() != object->Key()) continue;
      // dido-analyze: allow(hot): slot CAS, the publication protocol.
      if (buckets_[b].slots[s].compare_exchange_strong(
              entry, new_entry, std::memory_order_acq_rel)) {
        if (replaced != nullptr) *replaced = existing;
        return Status::Ok();
      }
      // Lost a race; fall through to the normal insert path.
    }
  }

  // Pass 2: claim an empty slot in either bucket with a CAS.
  for (uint64_t b : {b1, b2}) {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      uint64_t expected = 0;
      if (buckets_[b].slots[s].load(std::memory_order_acquire) != 0) continue;
      // dido-analyze: allow(hot): slot CAS, as in pass 1.
      if (buckets_[b].slots[s].compare_exchange_strong(
              expected, new_entry, std::memory_order_acq_rel)) {
        // relaxed: occupancy statistic; publication is the acq_rel CAS on
        // the slot itself.
        // dido-analyze: allow(hot): occupancy, once per new key, not per op.
        live_entries_.fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      }
    }
  }

  // Pass 3: displacement under the table-wide cuckoo lock.
  // dido-analyze: begin-allow(hot): taken only when both candidate buckets
  // are full (passes 1-2 are lock-free CAS); the lock serializes the
  // random-walk displacement, and Search never blocks on it — the
  // slow-path frequency is the load factor the paper sizes the table for.
  MutexLock lock(displacement_mu_);
  uint64_t bucket = 0;
  int slot = 0;
  Status status = MakeRoom(b1, b2, &bucket, &slot, &tally->displacements);
  if (!status.ok()) {
    tally->failed_inserts += 1;
    return status;
  }
  buckets_[bucket].slots[slot].store(new_entry, std::memory_order_release);
  // relaxed: occupancy statistic (see above).
  live_entries_.fetch_add(1, std::memory_order_relaxed);
  // dido-analyze: end-allow(hot)
  return Status::Ok();
}

Status CuckooHashTable::Delete(uint64_t hash, std::string_view key,
                               KvObject** removed, Counters* tally) {
  if (tally == nullptr) tally = &Uncounted();
  const uint16_t signature = SignatureOf(hash);
  const uint64_t b1 = PrimaryBucket(hash);
  const uint64_t b2 = AlternateBucket(b1, signature);
  if (removed != nullptr) *removed = nullptr;
  tally->deletes += 1;
  for (uint64_t b : {b1, b2}) {
    tally->delete_buckets_probed += 1;
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      uint64_t entry = buckets_[b].slots[s].load(std::memory_order_acquire);
      if (entry == 0 || EntrySignature(entry) != signature) continue;
      KvObject* object = EntryObject(entry);
      if (object->Key() != key) continue;
      // dido-analyze: allow(hot): slot CAS, the unlink protocol.
      if (buckets_[b].slots[s].compare_exchange_strong(
              entry, 0, std::memory_order_acq_rel)) {
        // relaxed: statistic; the unlink is published by the CAS above.
        // dido-analyze: allow(hot): occupancy, as in Insert.
        live_entries_.fetch_sub(1, std::memory_order_relaxed);
        if (removed != nullptr) *removed = object;
        return Status::Ok();
      }
    }
  }
  return Status::NotFound();
}

Status CuckooHashTable::Remove(uint64_t hash, KvObject* object) {
  const uint16_t signature = SignatureOf(hash);
  const uint64_t b1 = PrimaryBucket(hash);
  const uint64_t b2 = AlternateBucket(b1, signature);
  for (uint64_t b : {b1, b2}) {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      uint64_t entry = buckets_[b].slots[s].load(std::memory_order_acquire);
      if (entry == 0 || EntryObject(entry) != object) continue;
      if (buckets_[b].slots[s].compare_exchange_strong(
              entry, 0, std::memory_order_acq_rel)) {
        // relaxed: statistic; the unlink is published by the CAS above.
        live_entries_.fetch_sub(1, std::memory_order_relaxed);
        return Status::Ok();
      }
    }
  }
  return Status::NotFound();
}

void CuckooHashTable::ForEach(
    const std::function<void(const KvObject*)>& fn) const {
  for (uint64_t b = 0; b < num_buckets_; ++b) {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      // acquire: pairs with the publishing CAS in Insert so the object's
      // contents (written before publication) are visible to the visitor.
      const uint64_t entry =
          buckets_[b].slots[s].load(std::memory_order_acquire);
      if (entry == 0) continue;
      fn(EntryObject(entry));
    }
  }
}

CuckooHashTable::Counters& CuckooHashTable::Counters::operator+=(
    const Counters& other) {
  searches += other.searches;
  search_buckets_probed += other.search_buckets_probed;
  search_primary_hits += other.search_primary_hits;
  inserts += other.inserts;
  insert_buckets_probed += other.insert_buckets_probed;
  displacements += other.displacements;
  deletes += other.deletes;
  delete_buckets_probed += other.delete_buckets_probed;
  failed_inserts += other.failed_inserts;
  return *this;
}

uint64_t CuckooHashTable::LiveEntries() const {
  // relaxed: approximate occupancy statistic, orders nothing.
  return live_entries_.load(std::memory_order_relaxed);
}

double CuckooHashTable::LoadFactor() const {
  return static_cast<double>(LiveEntries()) / static_cast<double>(Capacity());
}

}  // namespace dido
