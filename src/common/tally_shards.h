#ifndef DIDO_COMMON_TALLY_SHARDS_H_
#define DIDO_COMMON_TALLY_SHARDS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dido {

// Dense id of the calling thread: the smallest id no live thread holds when
// it first asks.  The id returns to the pool when the thread exits, so ids
// stay below the peak number of live threads that asked, however many
// threads come and go.  A thread that takes over an exited thread's id
// adds on top of the counts that thread left: the exit and the reuse are
// ordered by the registry lock, so the new holder sees every store the
// previous one made.
class ThreadShardId {
 public:
  static size_t Get() {
    if (id_ != kUnassigned) return id_;
    // dido-analyze: allow(hot): once per thread, on first use: takes the
    // id registry's lock and arms the exit hook that recycles the id.
    return Register();
  }

 private:
  struct ExitHook;
  static constexpr size_t kUnassigned = std::numeric_limits<size_t>::max();
  // Id of a thread whose exit hook has run: beyond any capacity, so a
  // count made during the rest of its teardown lands in an overflow shard.
  static constexpr size_t kExited = kUnassigned - 1;

  static size_t Register();

  static inline thread_local size_t id_ = kUnassigned;
};

// Per-thread running totals of a tally type `T`, a struct of uint64_t
// counts only (e.g. CuckooHashTable::Counters).  Each thread that calls Add
// owns one cache-line-padded shard, indexed by its ThreadShardId, and is
// that shard's only writer: Add is a relaxed load and a relaxed store per
// count, no read-modify-write and no lock.  A thread whose id is
// >= kCapacity adds into one mutex-guarded overflow shard instead, so the
// sums stay exact however many threads count.
//
// Sum adds up every shard.  It is exact once the writers are quiescent.
// While a writer is mid-Add, each count of the sum is monotone, but the
// counts are not one atomic snapshot: a reader can see one field of a
// tally folded and the next not yet.
template <typename T, size_t kCapacity = 64>
class TallyShards {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::has_unique_object_representations_v<T> &&
                    sizeof(T) % sizeof(uint64_t) == 0,
                "T must be a struct of uint64_t counts");
  static constexpr size_t kWords = sizeof(T) / sizeof(uint64_t);
  using Words = std::array<uint64_t, kWords>;

 public:
  static constexpr size_t capacity() { return kCapacity; }

  void Add(const T& tally) {
    const size_t id = ThreadShardId::Get();
    if (id >= kCapacity) {
      AddOverflow(tally);
      return;
    }
    Shard& shard = shards_[id];
    for (size_t i = 0; i < kWords; ++i) {
      // relaxed: this thread is the shard's only writer, so load + store
      // cannot lose an update; readers need only a monotone value.
      shard.words[i].store(
          shard.words[i].load(std::memory_order_relaxed) + Word(tally, i),
          std::memory_order_relaxed);
    }
  }

  T Sum() const {
    Words sum{};
    for (const Shard& shard : shards_) {
      for (size_t i = 0; i < kWords; ++i) {
        // relaxed: see Add.
        sum[i] += shard.words[i].load(std::memory_order_relaxed);
      }
    }
    MutexLock lock(overflow_mu_);
    for (size_t i = 0; i < kWords; ++i) sum[i] += overflow_[i];
    return std::bit_cast<T>(sum);
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  // Count `i` of `tally`, read in place: a whole-struct copy (bit_cast)
  // would store the tally in 16-byte pieces over its 8-byte fields and
  // stall every load on store forwarding.
  static uint64_t Word(const T& tally, size_t i) {
    uint64_t word = 0;
    std::memcpy(&word,
                reinterpret_cast<const unsigned char*>(&tally) +
                    i * sizeof(uint64_t),
                sizeof(word));
    return word;
  }

  // DIDO_COLD: taken only by a thread whose id is past the capacity.
  void AddOverflow(const T& tally) DIDO_COLD {
    MutexLock lock(overflow_mu_);
    for (size_t i = 0; i < kWords; ++i) overflow_[i] += Word(tally, i);
  }

  // dido-analyze: allow(lock): per-thread single-writer atomics, see Add.
  std::array<Shard, kCapacity> shards_;
  mutable Mutex overflow_mu_;
  Words overflow_ DIDO_GUARDED_BY(overflow_mu_){};
};

}  // namespace dido

#endif  // DIDO_COMMON_TALLY_SHARDS_H_
