// Unit + property tests for the cuckoo hash index.

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/cuckoo_hash_table.h"
#include "mem/slab_allocator.h"

namespace dido {
namespace {

// A small object pool backing index entries for tests.
class ObjectPool {
 public:
  ObjectPool() : allocator_(Options()) {}

  KvObject* Make(const std::string& key, const std::string& value = "v") {
    Result<KvObject*> object = allocator_.Allocate(key, value, 0, nullptr);
    EXPECT_TRUE(object.ok());
    return *object;
  }
  void Release(KvObject* object) { allocator_.Free(object); }

 private:
  static SlabAllocator::Options Options() {
    SlabAllocator::Options options;
    options.arena_bytes = 32 << 20;
    return options;
  }
  SlabAllocator allocator_;
};

CuckooHashTable::Options SmallTable(uint64_t buckets = 1024) {
  CuckooHashTable::Options options;
  options.num_buckets = buckets;
  return options;
}

TEST(CuckooTest, InsertThenSearchVerified) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable());
  KvObject* object = pool.Make("alpha");
  ASSERT_TRUE(
      table.Insert(CuckooHashTable::HashKey("alpha"), object, nullptr).ok());
  EXPECT_EQ(table.SearchVerified(CuckooHashTable::HashKey("alpha"), "alpha"),
            object);
  EXPECT_EQ(table.LiveEntries(), 1u);
}

TEST(CuckooTest, MissingKeyNotFound) {
  CuckooHashTable table(SmallTable());
  EXPECT_EQ(table.SearchVerified(CuckooHashTable::HashKey("ghost"), "ghost"),
            nullptr);
}

TEST(CuckooTest, InsertReplacesSameKey) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable());
  KvObject* v1 = pool.Make("key", "v1");
  KvObject* v2 = pool.Make("key", "v2");
  const uint64_t hash = CuckooHashTable::HashKey("key");
  ASSERT_TRUE(table.Insert(hash, v1, nullptr).ok());
  KvObject* replaced = nullptr;
  ASSERT_TRUE(table.Insert(hash, v2, &replaced).ok());
  EXPECT_EQ(replaced, v1);
  EXPECT_EQ(table.LiveEntries(), 1u);
  EXPECT_EQ(table.SearchVerified(hash, "key")->Value(), "v2");
}

TEST(CuckooTest, DeleteRemovesEntry) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable());
  KvObject* object = pool.Make("key");
  const uint64_t hash = CuckooHashTable::HashKey("key");
  ASSERT_TRUE(table.Insert(hash, object, nullptr).ok());
  KvObject* removed = nullptr;
  ASSERT_TRUE(table.Delete(hash, "key", &removed).ok());
  EXPECT_EQ(removed, object);
  EXPECT_EQ(table.LiveEntries(), 0u);
  EXPECT_EQ(table.SearchVerified(hash, "key"), nullptr);
  EXPECT_EQ(table.Delete(hash, "key", &removed).code(),
            StatusCode::kNotFound);
}

TEST(CuckooTest, RemoveByIdentity) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable());
  KvObject* object = pool.Make("key");
  const uint64_t hash = CuckooHashTable::HashKey("key");
  ASSERT_TRUE(table.Insert(hash, object, nullptr).ok());
  ASSERT_TRUE(table.Remove(hash, object).ok());
  EXPECT_EQ(table.LiveEntries(), 0u);
  EXPECT_EQ(table.Remove(hash, object).code(), StatusCode::kNotFound);
}

TEST(CuckooTest, FreshTableIsEmpty) {
  // 1 << 15 buckets are exactly 2 MiB: the huge-page mapping.
  for (const uint64_t buckets : {uint64_t{1} << 10, uint64_t{1} << 15}) {
    CuckooHashTable table(SmallTable(buckets));
    EXPECT_EQ(table.LiveEntries(), 0u);
    Random rng(buckets);
    KvObject* candidates[8];
    for (int i = 0; i < 4096; ++i) {
      ASSERT_EQ(table.Search(rng.Next(), candidates, 8), 0) << buckets;
    }
    int visited = 0;
    table.ForEach([&visited](const KvObject*) { ++visited; });
    EXPECT_EQ(visited, 0);
  }
}

TEST(CuckooTest, SearchReturnsCandidatesForKc) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable());
  KvObject* object = pool.Make("needle");
  const uint64_t hash = CuckooHashTable::HashKey("needle");
  ASSERT_TRUE(table.Insert(hash, object, nullptr).ok());
  KvObject* candidates[8];
  const int n = table.Search(hash, candidates, 8);
  ASSERT_GE(n, 1);
  bool found = false;
  for (int i = 0; i < n; ++i) found |= candidates[i] == object;
  EXPECT_TRUE(found);
}

TEST(CuckooTest, CountersTrackProbes) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable());
  KvObject* object = pool.Make("key");
  const uint64_t hash = CuckooHashTable::HashKey("key");
  CuckooHashTable::Counters tally;
  ASSERT_TRUE(table.Insert(hash, object, nullptr, &tally).ok());
  EXPECT_EQ(tally.inserts, 1u);
  tally = CuckooHashTable::Counters();
  KvObject* candidates[8];
  table.Search(hash, candidates, 8, &tally);
  EXPECT_EQ(tally.searches, 1u);
  // Both buckets are read for correctness.
  EXPECT_EQ(tally.search_buckets_probed, 2u);
  EXPECT_EQ(tally.search_primary_hits, 1u);
  // An uncounted call adds nothing, and the totals hold only what was
  // folded in.
  table.Search(hash, candidates, 8);
  EXPECT_EQ(tally.searches, 1u);
  EXPECT_EQ(table.counters().searches, 0u);
  table.Accumulate(tally);
  table.Accumulate(tally);
  EXPECT_EQ(table.counters().searches, 2u);
  EXPECT_EQ(table.counters().search_buckets_probed, 4u);
}

TEST(CuckooTest, DisplacementMakesRoom) {
  ObjectPool pool;
  // Tiny table: 2 buckets x 8 slots; 17+ keys force displacement churn.
  CuckooHashTable table(SmallTable(2));
  std::vector<KvObject*> objects;
  int inserted = 0;
  for (int i = 0; i < 14; ++i) {
    KvObject* object = pool.Make("key" + std::to_string(i));
    if (table
            .Insert(CuckooHashTable::HashKey("key" + std::to_string(i)),
                    object, nullptr)
            .ok()) {
      ++inserted;
      objects.push_back(object);
    }
  }
  EXPECT_EQ(inserted, 14);
  // Everything inserted must still be findable after displacements.
  for (int i = 0; i < inserted; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_NE(table.SearchVerified(CuckooHashTable::HashKey(key), key),
              nullptr)
        << key;
  }
}

TEST(CuckooTest, CapacityFullWhenSaturated) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable(2));  // 16 slots total
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    KvObject* object = pool.Make("key" + std::to_string(i));
    const Status status = table.Insert(
        CuckooHashTable::HashKey("key" + std::to_string(i)), object, nullptr);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCapacityFull);
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_LE(table.LiveEntries(), table.Capacity());
  EXPECT_GT(table.LoadFactor(), 0.9);
}

TEST(CuckooTest, LoadFactorHighBeforeFailure) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable(512));  // 4096 slots
  uint64_t inserted = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    KvObject* object = pool.Make(key);
    if (!table.Insert(CuckooHashTable::HashKey(key),
                      object, nullptr)
             .ok()) {
      break;
    }
    ++inserted;
  }
  // Bucketized cuckoo with 8-way buckets and 2 choices should exceed 90%.
  EXPECT_GT(static_cast<double>(inserted) / table.Capacity(), 0.90);
}

// Property test: the table agrees with a reference map across a long random
// workload of inserts, deletes, replaces and lookups.
TEST(CuckooTest, PropertyAgreesWithReferenceModel) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable(4096));
  std::unordered_map<std::string, KvObject*> reference;
  Random rng(2024);
  for (int step = 0; step < 30000; ++step) {
    const std::string key = "key" + std::to_string(rng.NextBounded(3000));
    const uint64_t hash = CuckooHashTable::HashKey(key);
    const uint64_t action = rng.NextBounded(10);
    if (action < 5) {  // lookup
      KvObject* found = table.SearchVerified(hash, key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr) << key;
      } else {
        EXPECT_EQ(found, it->second) << key;
      }
    } else if (action < 8) {  // insert / replace
      KvObject* object = pool.Make(key);
      KvObject* replaced = nullptr;
      ASSERT_TRUE(table.Insert(hash, object, &replaced).ok());
      auto it = reference.find(key);
      if (it != reference.end()) {
        EXPECT_EQ(replaced, it->second);
        pool.Release(replaced);
      } else {
        EXPECT_EQ(replaced, nullptr);
      }
      reference[key] = object;
    } else {  // delete
      KvObject* removed = nullptr;
      const Status status = table.Delete(hash, key, &removed);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(status.code(), StatusCode::kNotFound);
      } else {
        ASSERT_TRUE(status.ok());
        EXPECT_EQ(removed, it->second);
        pool.Release(removed);
        reference.erase(it);
      }
    }
  }
  EXPECT_EQ(table.LiveEntries(), reference.size());
}

// Concurrency smoke test: readers never crash or see phantom keys while a
// writer churns inserts/deletes on a disjoint key range.
TEST(CuckooTest, ConcurrentReadersWithWriter) {
  ObjectPool pool;
  CuckooHashTable table(SmallTable(4096));
  // Stable keys the readers will verify.
  std::vector<std::string> stable_keys;
  for (int i = 0; i < 500; ++i) {
    stable_keys.push_back("stable" + std::to_string(i));
    KvObject* object = pool.Make(stable_keys.back());
    ASSERT_TRUE(table
                    .Insert(CuckooHashTable::HashKey(stable_keys.back()),
                            object, nullptr)
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::thread reader([&] {
    Random rng(1);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string& key =
          stable_keys[rng.NextBounded(stable_keys.size())];
      if (table.SearchVerified(CuckooHashTable::HashKey(key), key) ==
          nullptr) {
        misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Writer churns other keys (forcing displacements of stable entries).
  std::vector<KvObject*> churn;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::string key =
          "churn" + std::to_string(round) + "_" + std::to_string(i);
      KvObject* object = pool.Make(key);
      if (table.Insert(CuckooHashTable::HashKey(key), object, nullptr).ok()) {
        churn.push_back(object);
      }
    }
    for (KvObject* object : churn) {
      table.Remove(CuckooHashTable::HashKey(object->Key()), object).ok();
      pool.Release(object);
    }
    churn.clear();
  }
  stop.store(true);
  reader.join();
  // Stable keys must never have gone missing (displacement publishes the
  // new location before clearing the old one).
  EXPECT_EQ(misses.load(), 0u);
}

TEST(CuckooTest, BucketCountRoundsToPowerOfTwo) {
  CuckooHashTable table(SmallTable(1000));
  EXPECT_EQ(table.num_buckets(), 1024u);
  EXPECT_EQ(table.Capacity(), 1024u * CuckooHashTable::kSlotsPerBucket);
}

}  // namespace
}  // namespace dido
