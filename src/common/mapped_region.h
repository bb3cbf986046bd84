#ifndef DIDO_COMMON_MAPPED_REGION_H_
#define DIDO_COMMON_MAPPED_REGION_H_

#include <cstddef>
#include <cstdint>

namespace dido {

// Owns one anonymous private memory mapping: the backing store of a large,
// long-lived region (the slab arena, the cuckoo bucket array).
//
//  * The kernel zeroes the pages lazily, on first touch, so a fresh region
//    reads as value-initialised memory without an eager memset faulting in
//    every page before the first object is stored.
//  * A request of at least kHugePageBytes is rounded up to and aligned on
//    2 MiB and hinted MADV_HUGEPAGE, so the random KC/WR/MM accesses into it
//    miss the TLB less often.  Smaller requests are rounded to 4 KiB and get
//    no hint.  A refused hint (THP disabled) is not an error.
//  * Under AddressSanitizer the rounded tail past the requested size is
//    poisoned, so an overrun is reported as it was for a heap array.
class MappedRegion {
 public:
  static constexpr size_t kHugePageBytes = size_t{2} << 20;
  static constexpr size_t kSmallPageBytes = size_t{4} << 10;

  MappedRegion() = default;
  // Maps at least `bytes` zeroed bytes; a failed mapping is fatal, as an
  // exhausted heap was for the arrays this replaces.
  explicit MappedRegion(size_t bytes);
  ~MappedRegion() { Unmap(); }

  MappedRegion(MappedRegion&& other) noexcept;
  MappedRegion& operator=(MappedRegion&& other) noexcept;
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  uint8_t* data() const { return data_; }
  // Bytes requested: the usable extent.
  size_t size() const { return size_; }
  // Bytes mapped: size() rounded up to the region's page granule.
  size_t mapped_bytes() const { return mapped_bytes_; }

 private:
  void Unmap();

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t mapped_bytes_ = 0;
};

// Bytes of this process's anonymous memory that sit on transparent huge
// pages (AnonHugePages in /proc/self/smaps_rollup); 0 when unreadable.
// Reads a file: for exposition time, never a hot path.
uint64_t ProcessAnonHugeBytes();

}  // namespace dido

#endif  // DIDO_COMMON_MAPPED_REGION_H_
