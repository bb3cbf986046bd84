#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DIDO_CRC32C_HAVE_SSE42_PATH 1
#include <nmmintrin.h>
#else
#define DIDO_CRC32C_HAVE_SSE42_PATH 0
#endif

namespace dido {
namespace {

// Table for the portable byte-at-a-time implementation, generated once on
// first use (reflected polynomial 0x82F63B78).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

#if DIDO_CRC32C_HAVE_SSE42_PATH
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  // Head: bring the pointer to 8-byte alignment one byte at a time.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

bool DetectHardware() { return __builtin_cpu_supports("sse4.2") != 0; }
#else
bool DetectHardware() { return false; }
#endif

// Raw (non-finalized) dispatch: `crc` is the in-progress register value.
uint32_t Crc32cRaw(uint32_t crc, const void* data, size_t n) {
#if DIDO_CRC32C_HAVE_SSE42_PATH
  static const bool hardware = DetectHardware();
  if (hardware) return Crc32cHardware(crc, data, n);
#endif
  return internal::Crc32cPortable(crc, data, n);
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const Crc32cTable& table = Table();
  for (size_t i = 0; i < n; ++i) {
    crc = table.entries[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace internal

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cRaw(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  // Un-finalize, extend, re-finalize — makes Extend compose with the
  // one-shot form over concatenation.
  return Crc32cRaw(crc ^ 0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace dido
