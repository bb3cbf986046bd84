#include "workload/trace.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/logging.h"

namespace dido {
namespace {

constexpr uint32_t kTraceMagic = 0x4F444944;  // "DIDO"
constexpr uint32_t kTraceVersion = 1;

// Fixed-size on-disk header (all little-endian, packed manually).
struct TraceHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t key_size;
  uint32_t value_size;
  uint32_t get_permille;  // GET ratio in 1/1000
  uint32_t distribution;  // KeyDistribution
  double zipf_skew;
  uint64_t num_objects;
  uint64_t num_queries;
};

// One packed query record: 1 byte op + 8 bytes key index.
constexpr size_t kRecordBytes = 9;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

Status SaveTrace(const std::string& path, const Trace& trace) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::Unavailable("cannot open trace file for writing: " + path);
  }
  TraceHeader header;
  std::memset(&header, 0, sizeof(header));
  header.magic = kTraceMagic;
  header.version = kTraceVersion;
  header.key_size = trace.spec.dataset.key_size;
  header.value_size = trace.spec.dataset.value_size;
  header.get_permille =
      static_cast<uint32_t>(trace.spec.get_ratio * 1000.0 + 0.5);
  header.distribution = static_cast<uint32_t>(trace.spec.distribution);
  header.zipf_skew = trace.spec.zipf_skew;
  header.num_objects = trace.num_objects;
  header.num_queries = trace.queries.size();
  if (std::fwrite(&header, sizeof(header), 1, file.get()) != 1) {
    return Status::Unavailable("short write on trace header");
  }
  for (const Query& query : trace.queries) {
    uint8_t record[kRecordBytes];
    record[0] = static_cast<uint8_t>(query.op);
    std::memcpy(record + 1, &query.key_index, sizeof(query.key_index));
    if (std::fwrite(record, kRecordBytes, 1, file.get()) != 1) {
      return Status::Unavailable("short write on trace body");
    }
  }
  return Status::Ok();
}

Result<Trace> LoadTrace(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::Unavailable("cannot open trace file: " + path);
  }
  TraceHeader header;
  if (std::fread(&header, sizeof(header), 1, file.get()) != 1) {
    return Status::InvalidArgument("truncated trace header");
  }
  if (header.magic != kTraceMagic) {
    return Status::InvalidArgument("not a dido trace file");
  }
  if (header.version != kTraceVersion) {
    return Status::InvalidArgument("unsupported trace version");
  }
  if (header.key_size < 8 || header.key_size > 4096 ||
      header.get_permille > 1000 ||
      header.distribution > static_cast<uint32_t>(KeyDistribution::kZipf) ||
      header.num_objects == 0) {
    return Status::InvalidArgument("corrupt trace descriptor");
  }

  Trace trace;
  // Appended rather than `"K" + std::to_string(...)`, which trips GCC 12's
  // -Wrestrict false positive under -O3 (fatal with DIDO_WERROR).
  trace.spec.dataset.name = "K";
  trace.spec.dataset.name += std::to_string(header.key_size);
  trace.spec.dataset.key_size = header.key_size;
  trace.spec.dataset.value_size = header.value_size;
  trace.spec.get_ratio = header.get_permille / 1000.0;
  trace.spec.distribution = static_cast<KeyDistribution>(header.distribution);
  trace.spec.zipf_skew = header.zipf_skew;
  trace.num_objects = header.num_objects;
  trace.queries.reserve(header.num_queries);
  for (uint64_t i = 0; i < header.num_queries; ++i) {
    uint8_t record[kRecordBytes];
    if (std::fread(record, kRecordBytes, 1, file.get()) != 1) {
      return Status::InvalidArgument("truncated trace body");
    }
    if (record[0] > static_cast<uint8_t>(QueryOp::kDelete)) {
      return Status::InvalidArgument("corrupt trace record op");
    }
    Query query;
    query.op = static_cast<QueryOp>(record[0]);
    std::memcpy(&query.key_index, record + 1, sizeof(query.key_index));
    if (query.key_index >= trace.num_objects) {
      return Status::InvalidArgument("trace key index out of range");
    }
    trace.queries.push_back(query);
  }
  return trace;
}

Trace CaptureTrace(WorkloadGenerator& generator, size_t n) {
  Trace trace;
  trace.spec = generator.spec();
  trace.num_objects = generator.num_objects();
  trace.queries.reserve(n);
  for (size_t i = 0; i < n; ++i) trace.queries.push_back(generator.Next());
  return trace;
}

const Query& TraceCursor::Next() {
  DIDO_CHECK(trace_ != nullptr && !trace_->queries.empty());
  const Query& query = trace_->queries[position_];
  position_ += 1;
  if (position_ >= trace_->queries.size()) {
    position_ = 0;
    wraps_ += 1;
  }
  return query;
}

}  // namespace dido
