#ifndef DIDO_MEM_KV_OBJECT_H_
#define DIDO_MEM_KV_OBJECT_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace dido {

// In-memory representation of one key-value object.
//
// Layout:  [KvObject header][key bytes][value bytes]
//
// The header carries the access-frequency counter and sampling-epoch
// timestamp that DIDO's workload profiler uses for its lightweight Zipf
// skewness estimation (paper Section IV-B: "A counter and a timestamp are
// added to each key-value object"), plus the CLOCK state the slab
// allocator's eviction hand reads (MemC3-style approximate LRU).
struct KvObject {
  // flags bit: set when the object has been taken out of eviction and
  // handed to the epoch manager for deferred reclamation.  Whoever flips
  // the bit 0 -> 1 (always under the slab allocator's mutex) owns the
  // object's retirement; this is what keeps a SET-overwrite racing an
  // eviction of the same object from retiring it twice.
  static constexpr uint8_t kFlagDetached = 0x1;

  // Values of `clock`.  An allocation starts kClockUnpublished: the object
  // is not in the index yet, so evicting it would leave nothing to unlink
  // and its later Insert would publish a retired chunk.  Publishing (after
  // the index Insert) moves it to kClockClear; a GET hit sets
  // kClockReferenced without a lock, and the eviction hand (under the slab
  // allocator's mutex) clears it again.  kClockFree marks a free chunk.
  static constexpr uint8_t kClockClear = 0;
  static constexpr uint8_t kClockReferenced = 1;
  static constexpr uint8_t kClockUnpublished = 2;
  static constexpr uint8_t kClockFree = 3;

  uint32_t key_size = 0;
  uint32_t value_size = 0;
  uint32_t version = 0;
  uint8_t slab_class = 0;
  // Read and written only under the slab allocator's mutex.
  uint8_t flags = 0;
  std::atomic<uint8_t> clock{kClockUnpublished};  // see kClock*
  uint8_t reserved = 0;

  // Profiler sampling state (paper Section IV-B).
  std::atomic<uint32_t> freq_counter{0};
  std::atomic<uint64_t> sample_epoch{0};

  // Keeps the header at 48 B.  Size classes are 64 B apart at the low end,
  // and a 32 B header would move every object with key + value <= 32 B
  // from the 128 B class into the 64 B class.  Without slab rebalancing a
  // small arena then calcifies: pages already given to one class are never
  // handed to the other.  Shrinking the header needs rebalancing first.
  uint8_t reserved_tail[16] = {};

  uint8_t* KeyData() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* KeyData() const {
    return reinterpret_cast<const uint8_t*>(this + 1);
  }
  uint8_t* ValueData() { return KeyData() + key_size; }
  const uint8_t* ValueData() const { return KeyData() + key_size; }

  std::string_view Key() const {
    return std::string_view(reinterpret_cast<const char*>(KeyData()), key_size);
  }
  std::string_view Value() const {
    return std::string_view(reinterpret_cast<const char*>(ValueData()),
                            value_size);
  }

  // Total allocation footprint of an object with the given payload sizes.
  static size_t FootprintFor(uint32_t key_size, uint32_t value_size) {
    return sizeof(KvObject) + key_size + value_size;
  }
  size_t Footprint() const { return FootprintFor(key_size, value_size); }

  // Records one access in the current sampling epoch: resets the counter to
  // 1 when the object was last touched in an older epoch, otherwise
  // increments it.  Returns the post-update count.
  //
  // relaxed throughout: the counter is a sampling statistic (paper
  // Section IV-B), and the epoch check/reset pair is deliberately not
  // atomic — two threads racing across an epoch boundary can lose a
  // handful of counts, which the Zipf estimator absorbs.  No other state
  // is published through these fields.
  uint32_t RecordAccess(uint64_t epoch) {
    if (sample_epoch.load(std::memory_order_relaxed) != epoch) {
      sample_epoch.store(epoch, std::memory_order_relaxed);
      freq_counter.store(1, std::memory_order_relaxed);
      return 1;
    }
    // relaxed: sampling statistic (see above).
    // dido-analyze: allow(hot): the profiler's per-object access count, on
    // the header line KC has just read for the key compare.
    return freq_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

static_assert(sizeof(KvObject) % 8 == 0, "KvObject header must stay aligned");
static_assert(sizeof(KvObject) == 48,
              "KvObject header must stay 48 B (see reserved_tail)");
// The slab allocator reuses chunks without running destructors.
static_assert(std::is_trivially_destructible_v<KvObject>);

}  // namespace dido

#endif  // DIDO_MEM_KV_OBJECT_H_
