#include "workload/workload.h"

#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace dido {

std::string_view QueryOpName(QueryOp op) {
  switch (op) {
    case QueryOp::kGet:
      return "GET";
    case QueryOp::kSet:
      return "SET";
    case QueryOp::kDelete:
      return "DELETE";
  }
  return "UNKNOWN";
}

std::string WorkloadSpec::Name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s-G%d-%c", dataset.name.c_str(),
                static_cast<int>(get_ratio * 100.0 + 0.5),
                distribution == KeyDistribution::kZipf ? 'S' : 'U');
  return buf;
}

const DatasetSpec& DatasetK8() {
  static const DatasetSpec* kSpec = new DatasetSpec{"K8", 8, 8};
  return *kSpec;
}
const DatasetSpec& DatasetK16() {
  static const DatasetSpec* kSpec = new DatasetSpec{"K16", 16, 64};
  return *kSpec;
}
const DatasetSpec& DatasetK32() {
  static const DatasetSpec* kSpec = new DatasetSpec{"K32", 32, 256};
  return *kSpec;
}
const DatasetSpec& DatasetK128() {
  static const DatasetSpec* kSpec = new DatasetSpec{"K128", 128, 1024};
  return *kSpec;
}

const std::vector<DatasetSpec>& StandardDatasets() {
  static const std::vector<DatasetSpec>* kAll = new std::vector<DatasetSpec>{
      DatasetK8(), DatasetK16(), DatasetK32(), DatasetK128()};
  return *kAll;
}

WorkloadSpec MakeWorkload(const DatasetSpec& dataset, int get_percent,
                          KeyDistribution distribution) {
  WorkloadSpec spec;
  spec.dataset = dataset;
  spec.get_ratio = static_cast<double>(get_percent) / 100.0;
  spec.distribution = distribution;
  return spec;
}

bool ParseWorkloadName(const std::string& name, WorkloadSpec* out) {
  // Format: K<ks>-G<pct>-<U|S>
  int key_size = 0;
  int pct = 0;
  char dist = 0;
  if (std::sscanf(name.c_str(), "K%d-G%d-%c", &key_size, &pct, &dist) != 3) {
    return false;
  }
  const DatasetSpec* dataset = nullptr;
  for (const DatasetSpec& d : StandardDatasets()) {
    if (static_cast<int>(d.key_size) == key_size) dataset = &d;
  }
  if (dataset == nullptr || pct < 0 || pct > 100 || (dist != 'U' && dist != 'S')) {
    return false;
  }
  *out = MakeWorkload(*dataset, pct,
                      dist == 'S' ? KeyDistribution::kZipf
                                  : KeyDistribution::kUniform);
  return true;
}

std::vector<WorkloadSpec> StandardWorkloadMatrix() {
  std::vector<WorkloadSpec> out;
  for (const DatasetSpec& dataset : StandardDatasets()) {
    for (int pct : {100, 95, 50}) {
      for (KeyDistribution dist :
           {KeyDistribution::kUniform, KeyDistribution::kZipf}) {
        out.push_back(MakeWorkload(dataset, pct, dist));
      }
    }
  }
  return out;
}

void MaterializeKey(uint64_t key_index, uint32_t key_size, uint8_t* out) {
  DIDO_CHECK_GE(key_size, 8u);
  std::memcpy(out, &key_index, sizeof(key_index));
  // Deterministic filler derived from the index so that long keys differ in
  // more than their prefix (exercises full-key comparison in KC).
  uint64_t pattern = Mix64(key_index + 0x51AB);
  for (uint32_t i = 8; i < key_size; ++i) {
    out[i] = static_cast<uint8_t>(pattern >> ((i % 8) * 8));
    if (i % 8 == 7) pattern = Mix64(pattern);
  }
}

void MaterializeValue(uint64_t key_index, uint32_t value_size, uint32_t version,
                      uint8_t* out) {
  uint64_t pattern = Mix64(key_index * 0x9E3779B97F4A7C15ULL + version);
  for (uint32_t i = 0; i < value_size; ++i) {
    out[i] = static_cast<uint8_t>(pattern >> ((i % 8) * 8));
    if (i % 8 == 7) pattern = Mix64(pattern);
  }
}

WorkloadGenerator::WorkloadGenerator(WorkloadSpec spec, uint64_t num_objects,
                                     uint64_t seed)
    : spec_(std::move(spec)),
      num_objects_(num_objects),
      rng_(seed),
      zipf_(num_objects,
            spec_.distribution == KeyDistribution::kZipf ? spec_.zipf_skew
                                                         : 0.0) {
  DIDO_CHECK_GT(num_objects, 0u);
}

Query WorkloadGenerator::Next() {
  Query q;
  q.op = rng_.Bernoulli(spec_.get_ratio) ? QueryOp::kGet : QueryOp::kSet;
  q.key_index = zipf_.Next(rng_);
  return q;
}

void WorkloadGenerator::NextBatch(size_t n, std::vector<Query>* out) {
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) out->push_back(Next());
}

double WorkloadGenerator::TopFraction(uint64_t top_k) const {
  return zipf_.TopFraction(top_k);
}

}  // namespace dido
