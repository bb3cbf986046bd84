// End-to-end correctness tests of the shared KV runtime: preload, the batch
// task implementations, deferred reclamation and the direct API.

#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/cuckoo_hash_table.h"
#include "obs/metrics.h"
#include "pipeline/kv_runtime.h"
#include "pipeline/pipeline_config.h"
#include "net/sim_nic.h"

namespace dido {
namespace {

KvRuntime::Options SmallRuntime() {
  KvRuntime::Options options;
  options.slab.arena_bytes = 8 << 20;
  options.index.num_buckets = 1 << 14;
  return options;
}

std::string KeyFor(uint64_t index, uint32_t key_size) {
  std::string key(key_size, '\0');
  MaterializeKey(index, key_size, reinterpret_cast<uint8_t*>(key.data()));
  return key;
}

std::string ValueFor(uint64_t index, uint32_t value_size, uint32_t version) {
  std::string value(value_size, '\0');
  MaterializeValue(index, value_size, version,
                   reinterpret_cast<uint8_t*>(value.data()));
  return value;
}

// Fills `batch` from `source` and runs it through `config`'s task order,
// exactly as the executor would.
void RunBatchInto(KvRuntime& runtime, const PipelineConfig& config,
                  TrafficSource& source, size_t target_queries,
                  QueryBatch* batch) {
  batch->config = config;
  size_t queries = 0;
  while (queries < target_queries) {
    queries += source.FillFrame(&batch->AppendFrame(&batch->frames), nullptr);
  }
  EXPECT_TRUE(runtime.RunPacketProcessing(batch).ok());
  for (const StageSpec& stage : config.Stages(4)) {
    runtime.RunStage(stage, batch);
  }
  runtime.RetireBatch(batch);
}

// RunBatchInto on a fresh batch.
BatchMeasurements RunFullBatch(KvRuntime& runtime, const PipelineConfig& config,
                               TrafficSource& source, size_t target_queries,
                               QueryBatch* out = nullptr) {
  QueryBatch batch;
  RunBatchInto(runtime, config, source, target_queries, &batch);
  BatchMeasurements m = batch.measurements;
  if (out != nullptr) *out = std::move(batch);
  return m;
}

// A one-SET batch that has run PP-equivalent setup only.
void MakeSetBatch(const std::string& key, const std::string& value,
                  QueryBatch* batch) {
  batch->config = PipelineConfig::MegaKv();
  QueryRecord record;
  record.op = QueryOp::kSet;
  record.key = key;
  record.value = value;
  record.hash = CuckooHashTable::HashKey(key);
  batch->queries.push_back(record);
  batch->measurements.num_queries = 1;
  batch->measurements.sets = 1;
}

TEST(KvRuntimeTest, PreloadStoresRequestedObjects) {
  KvRuntime runtime(SmallRuntime());
  const uint64_t stored = runtime.Preload(DatasetK16(), 10000);
  EXPECT_EQ(stored, 10000u);
  EXPECT_EQ(runtime.live_objects(), 10000u);
  // Spot-check contents via the direct API.
  Result<std::string> value = runtime.GetValue(KeyFor(1234, 16));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, ValueFor(1234, 64, 0));
}

TEST(KvRuntimeTest, PreloadStopsAtMemoryCapacity) {
  KvRuntime::Options options = SmallRuntime();
  options.slab.arena_bytes = 1 << 20;
  KvRuntime runtime(options);
  const uint64_t stored = runtime.Preload(DatasetK128(), 1 << 20);
  EXPECT_GT(stored, 100u);
  EXPECT_LT(stored, 2000u);  // 1 MB / ~1.2 KB objects
}

TEST(KvRuntimeTest, DirectApiRoundTrip) {
  KvRuntime runtime(SmallRuntime());
  EXPECT_TRUE(runtime.Put("k1", "v1").ok());
  EXPECT_TRUE(runtime.Put("k2", "v2").ok());
  EXPECT_EQ(runtime.GetValue("k1").value(), "v1");
  EXPECT_TRUE(runtime.Put("k1", "v1b").ok());  // overwrite
  EXPECT_EQ(runtime.GetValue("k1").value(), "v1b");
  EXPECT_EQ(runtime.live_objects(), 2u);
  EXPECT_TRUE(runtime.DeleteKey("k1").ok());
  EXPECT_FALSE(runtime.GetValue("k1").ok());
  EXPECT_EQ(runtime.DeleteKey("k1").code(), StatusCode::kNotFound);
}

TEST(KvRuntimeTest, ExposesAnonHugeBytesGauge) {
  KvRuntime runtime(SmallRuntime());
  runtime.Preload(DatasetK128(), 1000);
  obs::MetricsRegistry registry;
  runtime.RegisterMetrics(&registry);
  const std::string text = registry.RenderPrometheus();
  runtime.RegisterMetrics(nullptr);
  // The value depends on the host's THP mode; only its form is checked.
  const std::string name = "\ndido_process_anon_huge_bytes ";
  const size_t at = text.find(name);
  ASSERT_NE(at, std::string::npos) << text;
  const double value = std::strtod(text.c_str() + at + name.size(), nullptr);
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_GE(value, 0.0);
}

class BatchPipelineTest
    : public ::testing::TestWithParam<PipelineConfig> {};

TEST_P(BatchPipelineTest, BatchGetsReturnCorrectValues) {
  const PipelineConfig config = GetParam();
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK16(), 5000);
  ASSERT_EQ(objects, 5000u);

  WorkloadSpec spec = MakeWorkload(DatasetK16(), 100, KeyDistribution::kZipf);
  WorkloadGenerator generator(spec, objects, 3);
  TrafficSource source(&generator);

  QueryBatch batch;
  const BatchMeasurements m =
      RunFullBatch(runtime, config, source, 2000, &batch);
  EXPECT_GE(m.num_queries, 2000u);
  EXPECT_EQ(m.gets, m.num_queries);
  EXPECT_EQ(m.hits, m.gets);  // all preloaded keys must hit
  EXPECT_EQ(m.misses, 0u);

  // Every GET record must have found the right object.
  for (const QueryRecord& record : batch.queries) {
    ASSERT_EQ(record.status, ResponseStatus::kOk);
    ASSERT_NE(record.object, nullptr);
    EXPECT_EQ(record.object->Key(), record.key);
  }
}

TEST_P(BatchPipelineTest, BatchSetsProduceInsertAndDelete) {
  const PipelineConfig config = GetParam();
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK16(), 5000);
  WorkloadSpec spec = MakeWorkload(DatasetK16(), 50, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, objects, 3);
  TrafficSource source(&generator);

  const BatchMeasurements m = RunFullBatch(runtime, config, source, 2000);
  EXPECT_GT(m.sets, 800u);
  // Every SET inserts a new version and unlinks the old one — the paper's
  // Insert+Delete pair (Section II-C2).
  EXPECT_EQ(m.inserts, m.sets);
  EXPECT_NEAR(static_cast<double>(m.deletes), static_cast<double>(m.sets),
              static_cast<double>(m.sets) * 0.02);
  // Store size is steady: overwrites don't grow the index.
  EXPECT_EQ(runtime.live_objects(), objects);
}

TEST_P(BatchPipelineTest, SetsVisibleToLaterBatches) {
  const PipelineConfig config = GetParam();
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK16(), 3000);
  WorkloadSpec spec = MakeWorkload(DatasetK16(), 50, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, objects, 3);
  TrafficSource source(&generator);
  for (int i = 0; i < 3; ++i) RunFullBatch(runtime, config, source, 1500);

  // Every stored key must still be reachable and well-formed.
  for (uint64_t i = 0; i < objects; i += 97) {
    const std::string key = KeyFor(i, 16);
    Result<std::string> value = runtime.GetValue(key);
    ASSERT_TRUE(value.ok()) << "key index " << i;
    EXPECT_EQ(value->size(), 64u);
  }
  EXPECT_EQ(runtime.live_objects(), objects);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchPipelineTest,
    ::testing::Values(
        PipelineConfig::MegaKv(),
        // DIDO's preferred read-intensive pipeline: [IN.S,KC,RD] on GPU.
        PipelineConfig{/*gpu_begin=*/3, /*gpu_end=*/6, Device::kCpu,
                       Device::kCpu, true, false},
        // RD/WR split across devices (staging path).
        PipelineConfig{/*gpu_begin=*/3, /*gpu_end=*/5, Device::kGpu,
                       Device::kGpu, true, false},
        // Pure CPU.
        PipelineConfig{/*gpu_begin=*/4, /*gpu_end=*/4, Device::kCpu,
                       Device::kCpu, false, false}),
    [](const ::testing::TestParamInfo<PipelineConfig>& info) {
      return "cut" + std::to_string(info.param.gpu_begin) + "_" +
             std::to_string(info.param.gpu_end) + "_ins" +
             (info.param.insert_device == Device::kCpu ? "c" : "g");
    });

TEST(KvRuntimeTest, StagingPathMatchesDirectPath) {
  // When RD and WR are in different stages the value travels through the
  // staging buffer; response contents must be identical either way.
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK32(), 1000);
  WorkloadSpec spec = MakeWorkload(DatasetK32(), 100, KeyDistribution::kUniform);

  auto collect_responses = [&](const PipelineConfig& config) {
    WorkloadGenerator generator(spec, objects, 9);
    TrafficSource source(&generator);
    QueryBatch batch;
    RunFullBatch(runtime, config, source, 500, &batch);
    std::map<std::string, std::string> responses;
    for (const Frame& frame : batch.responses) {
      size_t offset = 0;
      while (offset < frame.payload.size()) {
        ResponseView view;
        EXPECT_TRUE(DecodeResponse(frame.payload.data(), frame.payload.size(),
                                   &offset, &view)
                        .ok());
        responses[std::string(view.key)] = std::string(view.value);
      }
    }
    return responses;
  };

  PipelineConfig staged;  // RD on GPU, WR on CPU
  staged.gpu_begin = 3;
  staged.gpu_end = 6;
  const auto direct = collect_responses(PipelineConfig::MegaKv());
  const auto via_staging = collect_responses(staged);
  ASSERT_FALSE(direct.empty());
  ASSERT_FALSE(via_staging.empty());
  // Same generator seed -> same keys; values must agree.
  EXPECT_EQ(direct, via_staging);
}

TEST(KvRuntimeTest, ResponsesCoverEveryQuery) {
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK16(), 2000);
  WorkloadSpec spec = MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf);
  WorkloadGenerator generator(spec, objects, 3);
  TrafficSource source(&generator);
  QueryBatch batch;
  const BatchMeasurements m =
      RunFullBatch(runtime, PipelineConfig::MegaKv(), source, 1000, &batch);
  size_t responses = 0;
  for (const Frame& frame : batch.responses) {
    size_t offset = 0;
    while (offset < frame.payload.size()) {
      ResponseView view;
      ASSERT_TRUE(DecodeResponse(frame.payload.data(), frame.payload.size(),
                                 &offset, &view)
                      .ok());
      EXPECT_LE(frame.payload.size(), kMaxFramePayload);
      if (view.op == QueryOp::kGet) {
        EXPECT_EQ(view.status, ResponseStatus::kOk);
        EXPECT_EQ(view.value.size(), 64u);
      } else {
        EXPECT_EQ(view.status, ResponseStatus::kStored);
      }
      ++responses;
    }
  }
  EXPECT_EQ(responses, m.num_queries);
}

TEST(KvRuntimeTest, DeferredFreesKeepMemoryStable) {
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK8(), 20000);
  WorkloadSpec spec = MakeWorkload(DatasetK8(), 50, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, objects, 3);
  TrafficSource source(&generator);
  const uint64_t live_before = runtime.live_objects();
  for (int i = 0; i < 5; ++i) {
    RunFullBatch(runtime, PipelineConfig::MegaKv(), source, 2000);
    EXPECT_EQ(runtime.live_objects(), live_before);
  }
  // Allocator-level leak check.  Mid-run, allocations - frees equals
  // live + quarantined (replaced versions wait out the epoch); after a
  // full drain the quarantine term goes to zero and the classic equality
  // must hold.
  EXPECT_EQ(runtime.epoch().ReclaimAll(), 0u);
  const MemoryManager::Counters& counters = runtime.memory().counters();
  EXPECT_EQ(counters.allocations - counters.frees, live_before);
}

TEST(KvRuntimeTest, ExplicitDeleteQueries) {
  KvRuntime runtime(SmallRuntime());
  runtime.Preload(DatasetK16(), 100);
  // Hand-build a frame with DELETE queries.
  QueryBatch batch;
  batch.config = PipelineConfig::MegaKv();
  Frame frame;
  const std::string key5 = KeyFor(5, 16);
  const std::string key6 = KeyFor(6, 16);
  const std::string ghost = KeyFor(100000, 16);
  EncodeRequest(QueryOp::kDelete, key5, "", &frame.payload);
  EncodeRequest(QueryOp::kDelete, key6, "", &frame.payload);
  EncodeRequest(QueryOp::kDelete, ghost, "", &frame.payload);
  batch.frames.push_back(std::move(frame));
  ASSERT_TRUE(runtime.RunPacketProcessing(&batch).ok());
  runtime.RunIndexDelete(&batch, 0, batch.size());
  runtime.RunWriteResponse(&batch, 0, batch.size());
  runtime.RetireBatch(&batch);
  EXPECT_EQ(batch.queries[0].status, ResponseStatus::kDeleted);
  EXPECT_EQ(batch.queries[1].status, ResponseStatus::kDeleted);
  EXPECT_EQ(batch.queries[2].status, ResponseStatus::kMiss);
  EXPECT_FALSE(runtime.GetValue(key5).ok());
  EXPECT_EQ(runtime.live_objects(), 98u);
}

TEST(KvRuntimeTest, MeasuredProbeAveragesAreSane) {
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK16(), 5000);
  WorkloadSpec spec = MakeWorkload(DatasetK16(), 95, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, objects, 3);
  TrafficSource source(&generator);
  const BatchMeasurements m =
      RunFullBatch(runtime, PipelineConfig::MegaKv(), source, 2000);
  // Search always reads both candidate buckets; SET-replacements resolve
  // in the first matching bucket, so insert probes average in [1, 2+].
  EXPECT_NEAR(m.search_probes, 2.0, 0.01);
  EXPECT_GE(m.insert_probes, 1.0);
  // No explicit DELETEs and no evictions in this run.
  EXPECT_DOUBLE_EQ(m.delete_probes, 0.0);
}

// Two batches in flight on one runtime, their tasks interleaved: each
// batch's tally and probe averages count its own queries only, and the
// exported totals grow by exactly the two tallies.
TEST(KvRuntimeTest, InFlightBatchesCountOnlyTheirOwnOperations) {
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK16(), 5000);
  const CuckooHashTable::Counters index_before = runtime.index().counters();
  const MemoryManager::Counters mem_before = runtime.memory().counters();
  WorkloadGenerator reads(
      MakeWorkload(DatasetK16(), 100, KeyDistribution::kUniform), objects, 3);
  WorkloadGenerator writes(
      MakeWorkload(DatasetK16(), 50, KeyDistribution::kUniform), objects, 4);
  TrafficSource read_source(&reads);
  TrafficSource write_source(&writes);
  QueryBatch a;
  QueryBatch b;
  for (auto [batch, source] :
       {std::pair{&a, &read_source}, std::pair{&b, &write_source}}) {
    batch->config = PipelineConfig::MegaKv();
    size_t queries = 0;
    while (queries < 1000) {
      queries += source->FillFrame(&batch->AppendFrame(&batch->frames),
                                   nullptr);
    }
  }
  ASSERT_TRUE(runtime.RunPacketProcessing(&a).ok());
  ASSERT_TRUE(runtime.RunPacketProcessing(&b).ok());
  for (TaskKind task : {TaskKind::kMm, TaskKind::kInSearch,
                        TaskKind::kInInsert, TaskKind::kInDelete,
                        TaskKind::kKc, TaskKind::kRd, TaskKind::kWr}) {
    runtime.RunRangeTask(task, &a, 0, a.size());
    runtime.RunRangeTask(task, &b, 0, b.size());
  }
  runtime.RetireBatch(&a);
  runtime.RetireBatch(&b);

  const BatchMeasurements& ma = a.measurements;
  const BatchMeasurements& mb = b.measurements;
  ASSERT_EQ(ma.sets, 0u);
  ASSERT_GT(mb.sets, 0u);
  EXPECT_EQ(ma.index.searches, ma.gets);
  EXPECT_EQ(ma.index.inserts, 0u);
  EXPECT_EQ(mb.index.searches, mb.gets);
  EXPECT_EQ(mb.index.inserts, mb.sets);
  EXPECT_EQ(ma.mem.allocations, 0u);
  EXPECT_EQ(mb.mem.allocations, mb.sets);
  EXPECT_DOUBLE_EQ(ma.search_probes, 2.0);
  EXPECT_DOUBLE_EQ(ma.insert_probes, 0.0);
  EXPECT_DOUBLE_EQ(mb.search_probes, 2.0);
  EXPECT_GE(mb.insert_probes, 1.0);

  const CuckooHashTable::Counters index = runtime.index().counters();
  EXPECT_EQ(index.searches - index_before.searches,
            ma.index.searches + mb.index.searches);
  EXPECT_EQ(index.search_buckets_probed - index_before.search_buckets_probed,
            ma.index.search_buckets_probed + mb.index.search_buckets_probed);
  EXPECT_EQ(index.inserts - index_before.inserts, mb.index.inserts);
  EXPECT_EQ(index.insert_buckets_probed - index_before.insert_buckets_probed,
            mb.index.insert_buckets_probed);
  EXPECT_EQ(runtime.memory().counters().allocations - mem_before.allocations,
            mb.mem.allocations);
}

// The dido_index_* and dido_mem_* counter series, read off the metrics
// exposition as integers.
std::map<std::string, uint64_t> ExportedCounters(
    const obs::MetricsRegistry& registry) {
  std::map<std::string, uint64_t> series;
  std::istringstream lines(registry.RenderPrometheus());
  std::string line;
  while (std::getline(lines, line)) {
    const std::string name = line.substr(0, line.find(' '));
    if ((name.starts_with("dido_index_") || name.starts_with("dido_mem_")) &&
        name.ends_with("_total")) {
      series[name] = std::stoull(line.substr(name.size() + 1));
    }
  }
  return series;
}

std::map<std::string, uint64_t> SeriesOf(const CuckooHashTable::Counters& i,
                                         const MemoryManager::Counters& m,
                                         uint64_t frees) {
  return {
      {"dido_index_searches_total", i.searches},
      {"dido_index_search_buckets_probed_total", i.search_buckets_probed},
      {"dido_index_search_primary_hits_total", i.search_primary_hits},
      {"dido_index_inserts_total", i.inserts},
      {"dido_index_insert_buckets_probed_total", i.insert_buckets_probed},
      {"dido_index_displacements_total", i.displacements},
      {"dido_index_deletes_total", i.deletes},
      {"dido_index_delete_buckets_probed_total", i.delete_buckets_probed},
      {"dido_index_failed_inserts_total", i.failed_inserts},
      {"dido_mem_allocations_total", m.allocations},
      {"dido_mem_evictions_total", m.evictions},
      {"dido_mem_frees_total", frees},
      {"dido_mem_failed_allocations_total", m.failed_allocations},
  };
}

// Every exported index and memory series is the sum of the tallies folded
// into it: the preload's, one per direct call, and one per retired batch.
TEST(KvRuntimeTest, ExportedCountersAreSumsOfTallies) {
  KvRuntime runtime(SmallRuntime());
  obs::MetricsRegistry registry;
  runtime.RegisterMetrics(&registry);
  const uint64_t objects = runtime.Preload(DatasetK16(), 2000);
  ASSERT_EQ(objects, 2000u);
  // The preload: 2000 SETs of new keys, each probing both buckets for an
  // old version before it claims a slot.
  CuckooHashTable::Counters index;
  index.inserts = 2000;
  index.insert_buckets_probed = 4000;
  MemoryManager::Counters mem;
  mem.allocations = 2000;
  EXPECT_EQ(ExportedCounters(registry), SeriesOf(index, mem, 0));

  // Direct calls, each a batch of one.  Keys sit in their primary bucket
  // (the table is nearly empty), so hits resolve in the first bucket.
  ASSERT_TRUE(runtime.Put(KeyFor(1, 16), "new value").ok());
  index.inserts += 1;
  index.insert_buckets_probed += 1;
  mem.allocations += 1;
  ASSERT_TRUE(runtime.GetValue(KeyFor(2, 16)).ok());
  index.searches += 1;
  index.search_buckets_probed += 2;
  index.search_primary_hits += 1;
  ASSERT_TRUE(runtime.DeleteKey(KeyFor(3, 16)).ok());
  index.deletes += 1;
  index.delete_buckets_probed += 1;
  ASSERT_EQ(runtime.DeleteKey(KeyFor(3, 16)).code(), StatusCode::kNotFound);
  index.deletes += 1;
  index.delete_buckets_probed += 2;
  runtime.epoch().ReclaimAll();
  // Frees are not a tally: the replaced and the deleted object, counted by
  // the epoch deleter.
  EXPECT_EQ(ExportedCounters(registry), SeriesOf(index, mem, 2));

  WorkloadGenerator generator(
      MakeWorkload(DatasetK16(), 50, KeyDistribution::kUniform), objects, 7);
  TrafficSource source(&generator);
  for (int i = 0; i < 4; ++i) {
    const BatchMeasurements m =
        RunFullBatch(runtime, PipelineConfig::MegaKv(), source, 1000);
    EXPECT_GT(m.index.inserts, 0u);
    index += m.index;
    mem += m.mem;
  }
  EXPECT_EQ(ExportedCounters(registry),
            SeriesOf(index, mem, runtime.memory().counters().frees));
  runtime.RegisterMetrics(nullptr);
}

// Allocation counts through the SET path: one allocation per SET, one
// eviction per SET past capacity (a retryable out-of-memory is not a
// failure), and one failed allocation for an object no chunk can hold.
TEST(KvRuntimeTest, CountersTrackOperations) {
  KvRuntime::Options options = SmallRuntime();
  options.slab.arena_bytes = 64 << 10;  // one page of 64-byte chunks
  options.slab.page_bytes = 64 << 10;
  KvRuntime runtime(options);
  const uint64_t capacity =
      runtime.memory().allocator().CapacityForObject(8, 1);
  ASSERT_EQ(capacity, (64u << 10) / 64);
  for (uint64_t i = 0; i < capacity + 5; ++i) {
    ASSERT_TRUE(runtime.Put("key" + std::to_string(10000 + i), "v").ok());
  }
  EXPECT_EQ(runtime.memory().counters().allocations, capacity + 5);
  EXPECT_EQ(runtime.memory().counters().evictions, 5u);
  EXPECT_EQ(runtime.memory().counters().failed_allocations, 0u);
  EXPECT_FALSE(runtime.Put("k", std::string(1 << 20, 'x')).ok());
  EXPECT_EQ(runtime.memory().counters().failed_allocations, 1u);
  EXPECT_EQ(runtime.memory().counters().allocations, capacity + 5);
}

TEST(KvRuntimeTest, EvictionPathUnderMemoryPressure) {
  KvRuntime::Options options = SmallRuntime();
  options.slab.arena_bytes = 1 << 20;  // tiny arena
  KvRuntime runtime(options);
  const uint64_t objects = runtime.Preload(DatasetK16(), 100000);
  ASSERT_LT(objects, 100000u);  // arena filled before the target
  // SETs of *new* keys now must evict.
  WorkloadSpec spec = MakeWorkload(DatasetK16(), 0, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, objects * 2, 3);  // half the keys are new
  TrafficSource source(&generator);
  const BatchMeasurements m =
      RunFullBatch(runtime, PipelineConfig::MegaKv(), source, 1000);
  EXPECT_GT(m.mem.evictions, 0u);
  // Live object count cannot exceed what memory supports.
  EXPECT_LE(runtime.live_objects(), objects + 10);
}

TEST(KvRuntimeTest, AllocationGiveUpPathPropagatesError) {
  KvRuntime::Options options = SmallRuntime();
  options.slab.arena_bytes = 1 << 20;  // tiny arena
  KvRuntime runtime(options);
  const uint64_t objects = runtime.Preload(DatasetK16(), 100000);
  ASSERT_LT(objects, 100000u);  // arena filled before the target

  // A pinned reader blocks every epoch advance, so victims detached by the
  // allocation retry loop stay quarantined forever: the loop must exhaust
  // its bounded budget and give up rather than spin.
  EpochPin pin(runtime.epoch());

  QueryBatch batch;
  batch.config = PipelineConfig::MegaKv();
  const std::string key = "giveup-key-0001";
  const std::string value(64, 'x');
  QueryRecord record;
  record.op = QueryOp::kSet;
  record.key = key;
  record.value = value;
  record.hash = CuckooHashTable::HashKey(key);
  batch.queries.push_back(record);
  batch.measurements.num_queries = 1;
  batch.measurements.sets = 1;

  runtime.RunMemoryManagement(&batch, 0, 1);
  EXPECT_EQ(batch.queries[0].status, ResponseStatus::kError);
  EXPECT_EQ(batch.queries[0].object, nullptr);
  EXPECT_EQ(batch.measurements.failed_inserts, 1u);
  EXPECT_GT(batch.measurements.set_retries, 0u);
  EXPECT_EQ(batch.measurements.mem.failed_allocations, 1u);

  // WR still answers the query — with an explicit error record.
  runtime.RunWriteResponse(&batch, 0, 1);
  EXPECT_EQ(batch.measurements.error_responses, 1u);
  ASSERT_EQ(batch.responses.size(), 1u);
  size_t offset = 0;
  ResponseView view;
  ASSERT_TRUE(DecodeResponse(batch.responses[0].payload.data(),
                             batch.responses[0].payload.size(), &offset, &view)
                  .ok());
  EXPECT_EQ(view.status, ResponseStatus::kError);
  runtime.RetireBatch(&batch);
  EXPECT_GE(runtime.memory().counters().failed_allocations, 1u);

  // Once the pin releases, reclamation resumes and allocation recovers.
  pin.Release();
  runtime.epoch().ReclaimAll();
  EXPECT_TRUE(runtime.Put(key, value).ok());
  EXPECT_EQ(*runtime.GetValue(key), value);
}

// A SET's object is allocated by MM but enters the index only in IN.I, and
// in the live pipeline another batch's MM can run in between.  Its eviction
// must not pick the object: the eviction's index Remove would find nothing,
// and IN.I would then publish a retired chunk.
TEST(KvRuntimeTest, EvictionSkipsObjectAwaitingIndexInsert) {
  KvRuntime::Options options = SmallRuntime();
  options.slab.arena_bytes = 64 << 10;  // one page of 64-byte chunks
  options.slab.page_bytes = 64 << 10;
  KvRuntime runtime(options);
  // Exactly fills the arena: keys 0..capacity-1 in chunk order, hand at 0.
  const uint64_t capacity =
      runtime.memory().allocator().CapacityForObject(8, 8);
  ASSERT_EQ(capacity, (64u << 10) / 64);
  const uint64_t objects = runtime.Preload(DatasetK8(), capacity);
  ASSERT_EQ(objects, capacity);
  ASSERT_EQ(runtime.memory().counters().evictions, 0u);
  // With every reference bit set, the hand sweeps the whole page (clearing
  // the bits) before it evicts anything.
  const auto touch_all = [&] {
    for (uint64_t i = 0; i < objects; ++i) runtime.GetValue(KeyFor(i, 8)).ok();
  };
  touch_all();

  const std::string key_a = "set-a-00";
  const std::string value_a = "value-a0";
  QueryBatch a;
  MakeSetBatch(key_a, value_a, &a);
  runtime.RunMemoryManagement(&a, 0, 1);
  ASSERT_EQ(a.queries[0].status, ResponseStatus::kStored);
  KvObject* object_a = a.queries[0].object;
  ASSERT_NE(object_a, nullptr);
  EXPECT_GE(a.measurements.mem.evictions, 1u);

  // The hand now sits just past A's chunk: B's eviction sweeps the whole
  // page again and reaches A's chunk before any cleared bit.
  touch_all();
  const std::string key_b = "set-b-00";
  const std::string value_b = "value-b0";
  QueryBatch b;
  MakeSetBatch(key_b, value_b, &b);
  runtime.RunMemoryManagement(&b, 0, 1);
  ASSERT_EQ(b.queries[0].status, ResponseStatus::kStored);
  EXPECT_GE(b.measurements.mem.evictions, 1u);
  // A still owns its chunk and is still waiting for its Insert.
  EXPECT_EQ(object_a->flags & KvObject::kFlagDetached, 0);
  EXPECT_EQ(object_a->Key(), key_a);
  EXPECT_EQ(object_a->clock.load(), KvObject::kClockUnpublished);

  for (QueryBatch* batch : {&a, &b}) {
    runtime.RunIndexInsert(batch, 0, 1);
    runtime.RunWriteResponse(batch, 0, 1);
    runtime.RetireBatch(batch);
    EXPECT_EQ(batch->queries[0].status, ResponseStatus::kStored);
  }
  EXPECT_EQ(object_a->clock.load(), KvObject::kClockClear);
  for (const auto& [key, value] : {std::pair{key_a, value_a},
                                   std::pair{key_b, value_b}}) {
    const Result<std::string> got = runtime.GetValue(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  runtime.epoch().ReclaimAll();
  const MemoryManager::Counters counters = runtime.memory().counters();
  EXPECT_EQ(counters.allocations - counters.frees, runtime.live_objects());
}

// A batch reused through Clear() must behave exactly like a fresh one, even
// when its earlier use was larger and of another shape.
TEST(KvRuntimeTest, ClearedBatchEncodesLikeFreshBatch) {
  PipelineConfig staged;  // RD and WR in different stages: exercises staging
  staged.gpu_begin = 3;
  staged.gpu_end = 6;
  for (const PipelineConfig& config : {PipelineConfig::MegaKv(), staged}) {
    KvRuntime runtime(SmallRuntime());
    const uint64_t objects = runtime.Preload(DatasetK16(), 5000);
    WorkloadGenerator mixed(
        MakeWorkload(DatasetK16(), 50, KeyDistribution::kZipf), objects, 9);
    TrafficSource mixed_source(&mixed);
    QueryBatch reused;
    RunBatchInto(runtime, config, mixed_source, 4000, &reused);
    ASSERT_FALSE(reused.responses.empty());
    reused.Clear();
    EXPECT_TRUE(reused.frames.empty());
    EXPECT_TRUE(reused.queries.empty());
    EXPECT_TRUE(reused.responses.empty());
    EXPECT_TRUE(reused.staging.empty());

    // GET-only from here on, so both runs see the same store.
    const WorkloadSpec gets =
        MakeWorkload(DatasetK16(), 100, KeyDistribution::kZipf);
    WorkloadGenerator gen_a(gets, objects * 2, 5);  // half the keys miss
    WorkloadGenerator gen_b(gets, objects * 2, 5);
    TrafficSource source_a(&gen_a);
    TrafficSource source_b(&gen_b);
    RunBatchInto(runtime, config, source_a, 1000, &reused);
    QueryBatch fresh;
    RunBatchInto(runtime, config, source_b, 1000, &fresh);

    EXPECT_EQ(reused.measurements.num_queries, fresh.measurements.num_queries);
    EXPECT_EQ(reused.measurements.hits, fresh.measurements.hits);
    EXPECT_GT(fresh.measurements.misses, 0u);
    ASSERT_EQ(reused.responses.size(), fresh.responses.size());
    for (size_t i = 0; i < fresh.responses.size(); ++i) {
      EXPECT_EQ(reused.responses[i].payload, fresh.responses[i].payload)
          << "response frame " << i << " under " << config.ToString();
    }
  }
}

TEST(KvRuntimeTest, SamplingEpochFeedsFrequencies) {
  KvRuntime runtime(SmallRuntime());
  const uint64_t objects = runtime.Preload(DatasetK8(), 1000);
  runtime.set_sampling_epoch(7);
  WorkloadSpec spec = MakeWorkload(DatasetK8(), 100, KeyDistribution::kZipf);
  WorkloadGenerator generator(spec, objects, 3);
  TrafficSource source(&generator);
  const BatchMeasurements m =
      RunFullBatch(runtime, PipelineConfig::MegaKv(), source, 4000);
  ASSERT_FALSE(m.sampled_frequencies.empty());
  // Zipf traffic must produce some repeat counts within the epoch.
  uint32_t max_count = 0;
  for (uint32_t f : m.sampled_frequencies) max_count = std::max(max_count, f);
  EXPECT_GT(max_count, 1u);
}

}  // namespace
}  // namespace dido
