// Multi-threaded stress tests for the lock-free / shared-state components,
// written to run under ThreadSanitizer (ctest label "stress"; see the tsan
// CMake preset).  Sizes are kept modest so the suite stays fast under the
// ~10x TSan slowdown while still forcing real interleavings.

#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/cuckoo_hash_table.h"
#include "live/live_pipeline.h"
#include "mem/slab_allocator.h"
#include "pipeline/work_stealing.h"
#include "sync/epoch.h"

namespace dido {
namespace {

// ------------------------------------------------------- StealTagArray --

// All chunks are claimed exactly once even when more claimers than the
// paper's two processors contend on the tag array.
TEST(StealTagArrayStressTest, AllChunksClaimedExactlyOnceUnderContention) {
  constexpr uint64_t kChunks = 4096;
  constexpr int kClaimersPerDevice = 2;
  for (int round = 0; round < 3; ++round) {
    StealTagArray tags(kChunks * StealTagArray::kChunkQueries);
    std::vector<std::vector<int64_t>> claims(2 * kClaimersPerDevice);
    std::vector<std::thread> threads;
    std::atomic<bool> go{false};
    for (int t = 0; t < 2 * kClaimersPerDevice; ++t) {
      const Device device = t % 2 == 0 ? Device::kCpu : Device::kGpu;
      threads.emplace_back([&, t, device] {
        while (!go.load()) {
        }
        int64_t chunk;
        while ((chunk = tags.Claim(device)) >= 0) {
          claims[static_cast<size_t>(t)].push_back(chunk);
        }
      });
    }
    go.store(true);
    for (std::thread& thread : threads) thread.join();

    std::vector<int> owners(kChunks, 0);
    uint64_t total = 0;
    for (const std::vector<int64_t>& list : claims) {
      total += list.size();
      for (int64_t chunk : list) {
        owners[static_cast<size_t>(chunk)] += 1;
      }
    }
    EXPECT_EQ(total, kChunks);
    for (uint64_t c = 0; c < kChunks; ++c) {
      ASSERT_EQ(owners[c], 1) << "chunk " << c << " claimed " << owners[c]
                              << " times in round " << round;
    }
    EXPECT_TRUE(tags.Exhausted());
    EXPECT_EQ(tags.ClaimedBy(Device::kCpu) + tags.ClaimedBy(Device::kGpu),
              kChunks);
  }
}

// --------------------------------------------------------- CuckooHash --

// Concurrent Search / Insert / Delete on a shared table.  A stable key set
// stays resident for readers to verify; a writer churns its own disjoint
// key set.  Objects are preallocated and never reclaimed during the run,
// so candidate pointers collected by readers always stay dereferenceable
// (reclamation safety is the pipeline's job, exercised below).
TEST(CuckooHashTableStressTest, ConcurrentSearchInsertDelete) {
  CuckooHashTable::Options options;
  options.num_buckets = 1 << 12;
  CuckooHashTable table(options);

  struct Entry {
    std::string key;
    uint64_t hash = 0;
    KvObject* object = nullptr;
    std::vector<uint8_t> storage;
  };
  auto make_entry = [](const std::string& key) {
    Entry entry;
    entry.key = key;
    entry.hash = CuckooHashTable::HashKey(key);
    entry.storage.resize(KvObject::FootprintFor(
        static_cast<uint32_t>(key.size()), 8));
    entry.object = new (entry.storage.data()) KvObject();
    entry.object->key_size = static_cast<uint32_t>(key.size());
    entry.object->value_size = 8;
    std::memcpy(entry.object->KeyData(), key.data(), key.size());
    return entry;
  };

  constexpr int kStableKeys = 2000;
  constexpr int kChurnKeys = 500;
  std::vector<Entry> stable;
  std::vector<Entry> churn;
  // One tally per thread (index 0: this thread and the writer, which runs
  // after the stable inserts; then one per reader), summed at the end.
  constexpr int kReaders = 2;
  std::vector<CuckooHashTable::Counters> tallies(1 + kReaders);
  for (int i = 0; i < kStableKeys; ++i) {
    stable.push_back(make_entry("stable-" + std::to_string(i)));
    ASSERT_TRUE(table
                    .Insert(stable.back().hash, stable.back().object, nullptr,
                            &tallies[0])
                    .ok());
  }
  for (int i = 0; i < kChurnKeys; ++i) {
    churn.push_back(make_entry("churn-" + std::to_string(i)));
  }

  // Readers run a fixed lookup count; the writer keeps churning (at least
  // kMinRounds) until both readers finish, so the phases genuinely overlap
  // even on a single core.
  constexpr uint64_t kLookupsPerReader = 20000;
  constexpr int kMinRounds = 10;
  std::atomic<int> readers_done{0};
  std::atomic<uint64_t> churn_rounds{0};
  std::thread writer([&] {
    while (readers_done.load() < kReaders ||
           churn_rounds.load() < kMinRounds) {
      for (Entry& entry : churn) {
        ASSERT_TRUE(
            table.Insert(entry.hash, entry.object, nullptr, &tallies[0]).ok());
      }
      for (Entry& entry : churn) {
        KvObject* removed = nullptr;
        ASSERT_TRUE(
            table.Delete(entry.hash, entry.key, &removed, &tallies[0]).ok());
        ASSERT_EQ(removed, entry.object);
      }
      churn_rounds.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = static_cast<uint64_t>(r);
      for (uint64_t n = 0; n < kLookupsPerReader; ++n) {
        const Entry& entry = stable[i % stable.size()];
        KvObject* found = table.SearchVerified(entry.hash, entry.key,
                                               &tallies[1 + r]);
        ASSERT_EQ(found, entry.object) << "stable key lost: " << entry.key;
        i += 7;
      }
      readers_done.fetch_add(1);
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(table.LiveEntries(), static_cast<uint64_t>(kStableKeys));
  CuckooHashTable::Counters counters;
  for (const CuckooHashTable::Counters& tally : tallies) counters += tally;
  const uint64_t rounds = churn_rounds.load();
  EXPECT_GE(rounds, static_cast<uint64_t>(kMinRounds));
  EXPECT_EQ(counters.inserts,
            static_cast<uint64_t>(kStableKeys) + rounds * kChurnKeys);
  EXPECT_EQ(counters.deletes, rounds * kChurnKeys);
  EXPECT_EQ(counters.searches, kReaders * kLookupsPerReader);
}

// ------------------------------------------------------ SlabAllocator --

// Concurrent Allocate / Touch / Free from several threads on disjoint key
// ranges; the arena is sized so the run never evicts.  (Eviction under
// concurrency goes through the epoch-based detach/quarantine path — see
// the KvRuntime eviction stress test below and DESIGN.md "Epoch-based
// reclamation".)
TEST(SlabAllocatorStressTest, ConcurrentAllocateTouchFree) {
  SlabAllocator::Options options;
  options.arena_bytes = 32u << 20;
  SlabAllocator allocator(options);

  constexpr int kThreads = 4;
  constexpr int kObjectsPerThread = 400;
  constexpr int kRounds = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<KvObject*> mine;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kObjectsPerThread; ++i) {
          std::string key = "t";
          key += std::to_string(t) + "-" + std::to_string(i);
          Result<KvObject*> object =
              allocator.Allocate(key, "value-payload", 1, nullptr);
          ASSERT_TRUE(object.ok());
          mine.push_back(*object);
        }
        for (KvObject* object : mine) allocator.Touch(object);
        for (KvObject* object : mine) allocator.Free(object);
        mine.clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const SlabAllocator::Stats stats = allocator.GetStats();
  EXPECT_EQ(stats.live_objects, 0u);
  EXPECT_EQ(stats.total_evictions, 0u);
}

// ---------------------------------------------------------- KvRuntime --

// Eviction-heavy churn through the direct API: writers Put a stream of
// distinct keys into an arena far too small to hold them, so every Put
// past warm-up detaches an LRU victim, drops its index entry, and retires
// it to the epoch manager; readers concurrently GetValue keys across the
// whole written range.  A hit must return the exact value written —
// catching any reuse of a chunk a pinned reader could still dereference
// (under TSan the read and the recycling memcpy race; under ASan the read
// hits poisoned memory).
TEST(KvRuntimeStressTest, EvictionHeavyPutGetChurn) {
  KvRuntime::Options rt;
  rt.slab.arena_bytes = 1 << 20;  // thousands of turnovers below
  rt.index.num_buckets = 1 << 14;
  KvRuntime runtime(rt);

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kKeysPerWriter = 6000;

  auto key_of = [](int writer, int i) {
    return "writer" + std::to_string(writer) + "-key-" + std::to_string(i);
  };
  auto value_of = [](int writer, int i) {
    return "value-" + std::to_string(writer) + "-" + std::to_string(i) +
           "-payload";
  };

  // Readers only probe keys a writer has fully published.
  std::atomic<int> published[kWriters];
  for (std::atomic<int>& p : published) p.store(0);
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        ASSERT_TRUE(runtime.Put(key_of(w, i), value_of(w, i)).ok());
        published[w].store(i + 1);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      // Registered readers take the contention-free slot-pin path inside
      // GetValue; the pins are what the writers' eviction retry loop must
      // wait out, so the two sides genuinely contend on the epoch.
      ScopedEpochParticipant participant(runtime.epoch());
      Random rng(1234 + r);
      uint64_t hits = 0;
      uint64_t misses = 0;
      while (!writers_done.load()) {
        const int w = static_cast<int>(rng.NextBounded(kWriters));
        const int limit = published[w].load();
        if (limit == 0) continue;
        const int i = static_cast<int>(
            rng.NextBounded(static_cast<uint64_t>(limit)));
        Result<std::string> value = runtime.GetValue(key_of(w, i));
        if (value.ok()) {
          ASSERT_EQ(*value, value_of(w, i));  // never a recycled chunk
          ++hits;
        } else {
          ASSERT_EQ(value.status().code(), StatusCode::kNotFound);  // evicted
          ++misses;
        }
      }
      EXPECT_GT(hits + misses, 0u);
    });
  }
  for (size_t t = 0; t < static_cast<size_t>(kWriters); ++t) {
    threads[t].join();
  }
  writers_done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Quiescent: drain the quarantine and check the books balance.
  EXPECT_EQ(runtime.epoch().ReclaimAll(), 0u);
  const MemoryManager::Counters counters = runtime.memory().counters();
  EXPECT_EQ(counters.allocations - counters.frees, runtime.live_objects());
  EXPECT_EQ(runtime.memory().allocator().GetStats().detached_objects, 0u);
  // Eviction starts once the arena fills (capacity ~8k objects for this
  // arena), then runs ~1:1 with allocations; the margin only guards
  // against eviction never engaging.
  EXPECT_GT(counters.evictions, 2000u);
  EXPECT_EQ(counters.failed_allocations, 0u);
}

// ------------------------------------------------------- LivePipeline --

// Writers fold tallies into the index and memory totals while a reader
// polls counters(): every field only grows while the folds run, and after
// the join each total is exactly the sum of the folded tallies.
TEST(KvRuntimeStressTest, CounterFoldsStayMonotoneAndSumExactly) {
  KvRuntime::Options rt;
  rt.slab.arena_bytes = 1 << 20;
  rt.index.num_buckets = 1 << 10;
  KvRuntime runtime(rt);

  constexpr uint64_t kWriters = 4;
  constexpr uint64_t kFolds = 100000;
  const auto index_fields = [](const CuckooHashTable::Counters& c) {
    return std::array<uint64_t, 9>{
        c.searches,      c.search_buckets_probed, c.search_primary_hits,
        c.inserts,       c.insert_buckets_probed, c.displacements,
        c.deletes,       c.delete_buckets_probed, c.failed_inserts};
  };
  const auto mem_fields = [](const MemoryManager::Counters& c) {
    return std::array<uint64_t, 4>{c.allocations, c.evictions, c.frees,
                                   c.failed_allocations};
  };

  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&runtime, &reading, w] {
      while (!reading.load()) std::this_thread::yield();
      // Writer w adds w + 1 to every field per fold.
      const uint64_t n = w + 1;
      const CuckooHashTable::Counters index{n, n, n, n, n, n, n, n, n};
      const MemoryManager::Counters mem{n, n, n, n};
      for (uint64_t i = 0; i < kFolds; ++i) {
        runtime.index().Accumulate(index);
        runtime.memory().Accumulate(mem);
      }
    });
  }
  uint64_t polls = 0;
  uint64_t regressions = 0;
  std::thread reader([&] {
    std::array<uint64_t, 9> last_index{};
    std::array<uint64_t, 4> last_mem{};
    while (!done.load()) {
      const std::array<uint64_t, 9> index =
          index_fields(runtime.index().counters());
      const std::array<uint64_t, 4> mem =
          mem_fields(runtime.memory().counters());
      for (size_t f = 0; f < index.size(); ++f) {
        regressions += index[f] < last_index[f] ? 1 : 0;
      }
      for (size_t f = 0; f < mem.size(); ++f) {
        regressions += mem[f] < last_mem[f] ? 1 : 0;
      }
      last_index = index;
      last_mem = mem;
      polls += 1;
      reading.store(true);
    }
  });
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  reader.join();

  EXPECT_GT(polls, 0u);
  EXPECT_EQ(regressions, 0u);
  const uint64_t expected = kFolds * (kWriters * (kWriters + 1) / 2);
  for (uint64_t value : index_fields(runtime.index().counters())) {
    EXPECT_EQ(value, expected);
  }
  for (uint64_t value : mem_fields(runtime.memory().counters())) {
    EXPECT_EQ(value, expected);
  }
}

struct StressFixture {
  std::unique_ptr<KvRuntime> runtime;
  std::unique_ptr<WorkloadGenerator> generator;
  std::unique_ptr<TrafficSource> source;
  uint64_t objects = 0;

  explicit StressFixture(int get_ratio_percent) {
    KvRuntime::Options rt;
    rt.slab.arena_bytes = 16 << 20;
    rt.index.num_buckets = 1 << 14;
    runtime = std::make_unique<KvRuntime>(rt);
    const WorkloadSpec spec =
        MakeWorkload(DatasetK16(), get_ratio_percent, KeyDistribution::kZipf);
    objects = runtime->Preload(spec.dataset, 15000);
    generator = std::make_unique<WorkloadGenerator>(spec, objects, 5);
    source = std::make_unique<TrafficSource>(generator.get());
  }
};

// Repeated start/run/drain/stop cycles with a concurrent Collect() poller:
// exercises the lifecycle lock, the stats mutex, and queue close/drain.
TEST(LivePipelineStressTest, StartStopDrainCycles) {
  StressFixture f(90);
  LivePipeline::Options options;
  options.batch_queries = 1024;
  options.queue_depth = 2;
  LivePipeline pipeline(f.runtime.get(), PipelineConfig::MegaKv(), options);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) {
      (void)pipeline.Collect();
      (void)pipeline.running();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  uint64_t total_batches = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    pipeline.Stop();
    const LivePipeline::Stats stats = pipeline.Collect();
    EXPECT_GT(stats.batches, 0u) << "cycle " << cycle;
    EXPECT_EQ(stats.hits + stats.misses + stats.sets, stats.queries);
    total_batches += stats.batches;
  }
  done.store(true);
  poller.join();
  EXPECT_GT(total_batches, 4u);
  // The store must be intact after all cycles: every SET replaced in place.
  EXPECT_EQ(f.runtime->live_objects(), f.objects);
}

// Concurrent Stop() from two threads plus destruction through Stop: the
// lifecycle mutex must serialize the joins.
TEST(LivePipelineStressTest, ConcurrentStopIsSafe) {
  StressFixture f(95);
  LivePipeline::Options options;
  options.batch_queries = 1024;
  LivePipeline pipeline(f.runtime.get(), PipelineConfig::MegaKv(), options);
  ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread a([&] { pipeline.Stop(); });
  std::thread b([&] { pipeline.Stop(); });
  a.join();
  b.join();
  EXPECT_FALSE(pipeline.running());
  EXPECT_GT(pipeline.Collect().queries, 0u);
}

// SET-heavy traffic through a configuration that places IN.S in an earlier
// stage than IN.I with deep queues — the shape where a batch collects
// index candidates that a *later* batch's insert then unlinks.  This is
// the regression test for the reclamation grace window: with the old
// one-batch grace, KC could read objects whose slab chunk had already
// been reused (a use-after-free TSan reports as a data race with the
// allocator's memcpy).
TEST(LivePipelineStressTest, DeepQueueSetHeavySplitIndexStages) {
  StressFixture f(50);  // 50% GETs, 50% SETs: heavy in-place replacement
  PipelineConfig config;
  config.gpu_begin = 4;  // [RV,PP,MM,IN.S]cpu | [KC,RD]gpu | [WR,SD]cpu
  config.gpu_end = 6;
  config.insert_device = Device::kGpu;  // IN.I one stage after IN.S
  config.delete_device = Device::kGpu;
  LivePipeline::Options options;
  options.batch_queries = 512;
  options.queue_depth = 4;
  LivePipeline pipeline(f.runtime.get(), config, options);
  ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  pipeline.Stop();

  const LivePipeline::Stats stats = pipeline.Collect();
  EXPECT_GT(stats.sets, 500u);
  EXPECT_EQ(stats.misses, 0u);  // replacement is atomic in place
  EXPECT_EQ(f.runtime->live_objects(), f.objects);
  const MemoryManager::Counters counters = f.runtime->memory().counters();
  EXPECT_EQ(counters.allocations - counters.frees, f.objects);
}

// SET-heavy traffic against an arena the preload already wrapped: the MM
// stage constantly detaches victims whose pointers concurrent batches may
// still hold as IN.S candidates, so the whole epoch machinery — batch
// pins travelling across stage threads, inline eviction unlinks, the
// allocate-retry loop, RetireBatch's opportunistic reclaim — runs under
// real pipeline interleavings.
TEST(LivePipelineStressTest, EvictionHeavySmallArena) {
  KvRuntime::Options rt;
  rt.slab.arena_bytes = 2 << 20;
  rt.index.num_buckets = 1 << 14;
  auto runtime = std::make_unique<KvRuntime>(rt);
  const WorkloadSpec spec =
      MakeWorkload(DatasetK16(), 50, KeyDistribution::kZipf);
  // Preload far past capacity so the store starts full and stays full.
  const uint64_t live_after_preload = runtime->Preload(spec.dataset, 30000);
  ASSERT_GT(runtime->memory().counters().evictions, 0u);
  WorkloadGenerator generator(spec, live_after_preload, 5);
  TrafficSource source(&generator);

  LivePipeline::Options options;
  options.batch_queries = 512;
  options.queue_depth = 3;
  LivePipeline pipeline(runtime.get(), PipelineConfig::MegaKv(), options);
  ASSERT_TRUE(pipeline.Start(&source).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  pipeline.Stop();

  const LivePipeline::Stats stats = pipeline.Collect();
  EXPECT_GT(stats.sets, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.sets, stats.queries);

  // Stop() reclaimed everything: allocation/free accounting must balance
  // against the index, and no chunk may still sit in quarantine.
  const MemoryManager::Counters counters = runtime->memory().counters();
  EXPECT_EQ(counters.allocations - counters.frees, runtime->live_objects());
  EXPECT_EQ(runtime->memory().allocator().GetStats().detached_objects, 0u);
  const EpochManager::Stats epoch_stats = runtime->epoch().stats();
  EXPECT_EQ(epoch_stats.quarantined, 0u);
  EXPECT_EQ(epoch_stats.retired, epoch_stats.reclaimed);
}

}  // namespace
}  // namespace dido
