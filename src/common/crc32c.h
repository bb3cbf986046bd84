#ifndef DIDO_COMMON_CRC32C_H_
#define DIDO_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dido {

// CRC-32C (Castagnoli, polynomial 0x1EDC6A41 reflected to 0x82F63B78) —
// the checksum the durability tier stamps on every oplog record and
// checkpoint section, and the codec's malformed-frame hardening reuses.
// Hardware-accelerated via the SSE4.2 CRC32 instruction when the CPU has
// it (detected once at runtime); otherwise a portable table-driven
// fallback with identical results.
//
// The streaming form composes over concatenation:
//   Crc32c(ab) == Crc32cExtend(Crc32c(a), b)
// so callers can checksum scattered buffers without staging a copy.

// Checksum of `n` bytes starting at `data`.
uint32_t Crc32c(const void* data, size_t n);
inline uint32_t Crc32c(std::string_view s) {
  return Crc32c(s.data(), s.size());
}

// Extends a previously computed checksum with `n` more bytes.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);
inline uint32_t Crc32cExtend(uint32_t crc, std::string_view s) {
  return Crc32cExtend(crc, s.data(), s.size());
}

namespace internal {
// Exposed for tests: the portable path must agree with the hardware path
// on every input.
uint32_t Crc32cPortable(uint32_t crc, const void* data, size_t n);
}  // namespace internal

}  // namespace dido

#endif  // DIDO_COMMON_CRC32C_H_
