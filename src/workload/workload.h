#ifndef DIDO_WORKLOAD_WORKLOAD_H_
#define DIDO_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"

namespace dido {

// Query verbs, matching the three-command interface between an IMKV node and
// its clients (paper Section II-B).
enum class QueryOp : uint8_t { kGet = 0, kSet = 1, kDelete = 2 };

std::string_view QueryOpName(QueryOp op);

// One client query.  Keys are identified by a dense index; the byte
// representation is materialized on demand by KeyMaterializer so that a
// multi-million-query trace stays compact.
struct Query {
  QueryOp op = QueryOp::kGet;
  uint64_t key_index = 0;
};

// Key/value sizes of one data set.  The paper's benchmark uses four:
//   K8   (8 B key,   8 B value)   K16 (16 B key,   64 B value)
//   K32  (32 B key, 256 B value)  K128 (128 B key, 1024 B value)
struct DatasetSpec {
  std::string name;
  uint32_t key_size = 8;
  uint32_t value_size = 8;

  uint32_t ObjectSize() const { return key_size + value_size; }
};

// Key popularity distributions used in the evaluation (Section V-A).
enum class KeyDistribution : uint8_t {
  kUniform = 0,        // "U"
  kZipf = 1,           // "S": Zipf skewness 0.99, the YCSB default
};

// A full workload point: data set x GET ratio x key distribution, e.g.
// K32-G95-U = 32 B keys / 256 B values, 95% GET, uniform popularity.
struct WorkloadSpec {
  DatasetSpec dataset;
  double get_ratio = 0.95;  // fraction of GET queries; the rest are SET
  KeyDistribution distribution = KeyDistribution::kUniform;
  double zipf_skew = 0.99;

  // Canonical paper notation, e.g. "K32-G95-U".
  std::string Name() const;
};

// The four standard data sets.
const DatasetSpec& DatasetK8();
const DatasetSpec& DatasetK16();
const DatasetSpec& DatasetK32();
const DatasetSpec& DatasetK128();
const std::vector<DatasetSpec>& StandardDatasets();

// Builds a spec from parts; get_percent in {100, 95, 50}.
WorkloadSpec MakeWorkload(const DatasetSpec& dataset, int get_percent,
                          KeyDistribution distribution);

// Parses canonical names like "K16-G95-S".  Returns false on malformed input.
bool ParseWorkloadName(const std::string& name, WorkloadSpec* out);

// The full 24-workload evaluation matrix (4 datasets x 3 GET ratios x 2
// distributions), in the order the paper's figures enumerate them.
std::vector<WorkloadSpec> StandardWorkloadMatrix();

// Writes the canonical byte representation of key `key_index` for the given
// size into `out` (must have room for `key_size` bytes).  The first 8 bytes
// encode the index (so keys are unique); the rest is a deterministic pattern.
void MaterializeKey(uint64_t key_index, uint32_t key_size, uint8_t* out);

// Writes a deterministic value pattern for (key_index, version).
void MaterializeValue(uint64_t key_index, uint32_t value_size, uint32_t version,
                      uint8_t* out);

// Generates query streams for one workload over a key space of
// `num_objects` keys.  Deterministic given (spec, num_objects, seed).
class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadSpec spec, uint64_t num_objects, uint64_t seed = 1);

  const WorkloadSpec& spec() const { return spec_; }
  uint64_t num_objects() const { return num_objects_; }

  // Draws the next query.
  Query Next();

  // Fills `out` with `n` queries (cleared first).
  void NextBatch(size_t n, std::vector<Query>* out);

  // Exact hot-set fraction of the top_k most popular keys, delegated to the
  // Zipf generator (1.0 * top_k / n for uniform).
  double TopFraction(uint64_t top_k) const;

 private:
  WorkloadSpec spec_;
  uint64_t num_objects_;
  Random rng_;
  ZipfGenerator zipf_;
};

}  // namespace dido

#endif  // DIDO_WORKLOAD_WORKLOAD_H_
