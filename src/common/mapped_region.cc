#include "common/mapped_region.h"

#include <sys/mman.h>

#include <cstdio>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/logging.h"

namespace dido {
namespace {

uintptr_t RoundUp(uintptr_t value, uintptr_t granule) {
  return (value + granule - 1) / granule * granule;
}

}  // namespace

MappedRegion::MappedRegion(size_t bytes) : size_(bytes) {
  const bool huge = bytes >= kHugePageBytes;
  mapped_bytes_ = RoundUp(bytes, huge ? kHugePageBytes : kSmallPageBytes);
  // mmap only promises small-page alignment: over-map by one huge page and
  // trim to the 2 MiB-aligned window inside.
  const size_t over = huge ? kHugePageBytes : 0;
  void* raw = mmap(nullptr, mapped_bytes_ + over, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DIDO_CHECK(raw != MAP_FAILED)
      << "mmap of " << mapped_bytes_ + over << " bytes failed";
  auto* base = static_cast<uint8_t*>(raw);
  data_ = base;
  if (huge) {
    data_ = reinterpret_cast<uint8_t*>(
        RoundUp(reinterpret_cast<uintptr_t>(base), kHugePageBytes));
    const auto head = static_cast<size_t>(data_ - base);
    if (head > 0) munmap(base, head);
    // base is page aligned, so head < over and the tail is never empty.
    munmap(data_ + mapped_bytes_, over - head);
    // A refused hint only costs TLB reach: its result is ignored.
    madvise(data_, mapped_bytes_, MADV_HUGEPAGE);
  }
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(data_ + size_, mapped_bytes_ - size_);
#endif
}

MappedRegion::MappedRegion(MappedRegion&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}

MappedRegion& MappedRegion::operator=(MappedRegion&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
  }
  return *this;
}

void MappedRegion::Unmap() {
  if (data_ == nullptr) return;
#if defined(__SANITIZE_ADDRESS__)
  // The shadow outlives the mapping: a later mapping at this address must
  // not inherit the tail's poison.
  ASAN_UNPOISON_MEMORY_REGION(data_, mapped_bytes_);
#endif
  munmap(data_, mapped_bytes_);
  data_ = nullptr;
  size_ = 0;
  mapped_bytes_ = 0;
}

uint64_t ProcessAnonHugeBytes() {
  std::FILE* file = std::fopen("/proc/self/smaps_rollup", "r");
  if (file == nullptr) return 0;
  uint64_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "AnonHugePages: %llu kB", &value) == 1) {
      kib = value;
      break;
    }
  }
  std::fclose(file);
  return kib << 10;
}

}  // namespace dido
