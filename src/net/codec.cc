#include "net/codec.h"

#include <cstring>

#include "common/crc32c.h"
#include "faults/fault_registry.h"

namespace dido {
namespace {

void AppendU16(uint16_t v, std::vector<uint8_t>* buffer) {
  buffer->push_back(static_cast<uint8_t>(v & 0xFF));
  buffer->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(uint32_t v, std::vector<uint8_t>* buffer) {
  for (int i = 0; i < 4; ++i) {
    buffer->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void StoreU16(uint16_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v & 0xFF);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void StoreU32(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// 8-bit header guard carried in the request's reserved byte: the low byte
// of CRC32C over the other seven header bytes (op + key_len + value_len).
// A flipped length or op bit is rejected before the lengths are trusted,
// instead of surviving as a plausible-but-wrong record that misparses the
// rest of the frame.
uint8_t RequestHeaderChecksum(const uint8_t* header) {
  uint32_t crc = Crc32cExtend(0, header, 1);            // op
  crc = Crc32cExtend(crc, header + 2, 6);               // key_len, value_len
  return static_cast<uint8_t>(crc & 0xFFu);
}

}  // namespace

size_t EncodedRequestSize(QueryOp op, size_t key_size, size_t value_size) {
  return kRecordHeaderBytes + key_size + (op == QueryOp::kSet ? value_size : 0);
}

size_t EncodeRequest(QueryOp op, std::string_view key, std::string_view value,
                     std::vector<uint8_t>* buffer) {
  const size_t before = buffer->size();
  buffer->push_back(static_cast<uint8_t>(op));
  buffer->push_back(0);  // header checksum, patched below
  AppendU16(static_cast<uint16_t>(key.size()), buffer);
  AppendU32(op == QueryOp::kSet ? static_cast<uint32_t>(value.size()) : 0,
            buffer);
  (*buffer)[before + 1] = RequestHeaderChecksum(buffer->data() + before);
  buffer->insert(buffer->end(), key.begin(), key.end());
  if (op == QueryOp::kSet) {
    buffer->insert(buffer->end(), value.begin(), value.end());
  }
  const size_t encoded = buffer->size() - before;
  // Fault points (chaos builds only): mangle the just-encoded record so the
  // decode side's hardening is exercised by realistic wire damage.
  FaultHit hit;
  if (encoded > 1 && DIDO_FAULT_POINT_HIT("codec.encode.truncate", &hit)) {
    // Torn write: chop 1..encoded-1 bytes off the record's tail.
    const size_t cut = 1 + static_cast<size_t>(hit.rand % (encoded - 1));
    buffer->resize(buffer->size() - cut);
    return encoded - cut;
  }
  if (DIDO_FAULT_POINT_HIT("codec.encode.corrupt", &hit)) {
    // Single-bit corruption at a pseudo-random offset within the record.
    (*buffer)[before + static_cast<size_t>(hit.rand % encoded)] ^=
        static_cast<uint8_t>(1u << ((hit.rand >> 8) % 8));
  }
  return encoded;
}

size_t EncodeResponse(QueryOp op, ResponseStatus status, std::string_view key,
                      std::string_view value, std::vector<uint8_t>* buffer) {
  // One resize and three copies: WR encodes into recycled frames whose
  // capacity already fits, so this never reallocates in steady state.
  const size_t before = buffer->size();
  const size_t encoded = kRecordHeaderBytes + key.size() + value.size();
  // dido-analyze: allow(hot): grows the frame only until a recycled
  // response frame has reached its full size.
  buffer->resize(before + encoded);
  uint8_t* p = buffer->data() + before;
  p[0] = static_cast<uint8_t>(op);
  p[1] = static_cast<uint8_t>(status);
  StoreU16(static_cast<uint16_t>(key.size()), p + 2);
  StoreU32(static_cast<uint32_t>(value.size()), p + 4);
  if (!key.empty()) std::memcpy(p + kRecordHeaderBytes, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(p + kRecordHeaderBytes + key.size(), value.data(),
                value.size());
  }
  return encoded;
}

Status DecodeRequest(const uint8_t* data, size_t size, size_t* offset,
                     RequestView* out) {
  if (*offset + kRecordHeaderBytes > size) {
    return Status::InvalidArgument("truncated request header");
  }
  const uint8_t* p = data + *offset;
  if (p[1] != RequestHeaderChecksum(p)) {
    return Status::InvalidArgument("request header checksum mismatch");
  }
  const uint8_t op_raw = p[0];
  if (op_raw > static_cast<uint8_t>(QueryOp::kDelete)) {
    return Status::InvalidArgument("unknown request op");
  }
  out->op = static_cast<QueryOp>(op_raw);
  const uint16_t key_len = ReadU16(p + 2);
  const uint32_t value_len = ReadU32(p + 4);
  if (key_len == 0) return Status::InvalidArgument("empty key");
  if (value_len > kMaxRecordValueBytes) {
    return Status::InvalidArgument("oversized record value");
  }
  if (out->op != QueryOp::kSet && value_len != 0) {
    return Status::InvalidArgument("value on non-SET request");
  }
  const size_t body = static_cast<size_t>(key_len) + value_len;
  if (*offset + kRecordHeaderBytes + body > size) {
    return Status::InvalidArgument("truncated request body");
  }
  const char* key_start =
      reinterpret_cast<const char*>(p + kRecordHeaderBytes);
  out->key = std::string_view(key_start, key_len);
  out->value = std::string_view(key_start + key_len, value_len);
  *offset += kRecordHeaderBytes + body;
  return Status::Ok();
}

Status DecodeResponse(const uint8_t* data, size_t size, size_t* offset,
                      ResponseView* out) {
  if (*offset + kRecordHeaderBytes > size) {
    return Status::InvalidArgument("truncated response header");
  }
  const uint8_t* p = data + *offset;
  const uint8_t op_raw = p[0];
  if (op_raw > static_cast<uint8_t>(QueryOp::kDelete)) {
    return Status::InvalidArgument("unknown response op");
  }
  if (p[1] > static_cast<uint8_t>(ResponseStatus::kError)) {
    return Status::InvalidArgument("unknown response status");
  }
  out->op = static_cast<QueryOp>(op_raw);
  out->status = static_cast<ResponseStatus>(p[1]);
  const uint16_t key_len = ReadU16(p + 2);
  const uint32_t value_len = ReadU32(p + 4);
  if (value_len > kMaxRecordValueBytes) {
    return Status::InvalidArgument("oversized record value");
  }
  const size_t body = static_cast<size_t>(key_len) + value_len;
  if (*offset + kRecordHeaderBytes + body > size) {
    return Status::InvalidArgument("truncated response body");
  }
  const char* key_start =
      reinterpret_cast<const char*>(p + kRecordHeaderBytes);
  out->key = std::string_view(key_start, key_len);
  out->value = std::string_view(key_start + key_len, value_len);
  *offset += kRecordHeaderBytes + body;
  return Status::Ok();
}

Status DecodeAllRequests(const uint8_t* data, size_t size,
                         std::vector<RequestView>* out) {
  size_t offset = 0;
  while (offset < size) {
    RequestView view;
    DIDO_RETURN_IF_ERROR(DecodeRequest(data, size, &offset, &view));
    out->push_back(view);
  }
  return Status::Ok();
}

}  // namespace dido
