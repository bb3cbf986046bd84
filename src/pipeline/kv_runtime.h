#ifndef DIDO_PIPELINE_KV_RUNTIME_H_
#define DIDO_PIPELINE_KV_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/cuckoo_hash_table.h"
#include "mem/memory_manager.h"
#include "pipeline/batch.h"
#include "pipeline/task.h"
#include "sync/epoch.h"
#include "workload/workload.h"

namespace dido {

namespace obs {
class MetricsRegistry;
}
namespace durability {
class DurabilityManager;
}

// The shared key-value state of the store — the cuckoo index plus the slab
// heap — together with the *functional* implementation of every pipeline
// task.  This is the "hUMA" property made literal: whichever simulated
// processor a task is scheduled on, it operates on this single shared state
// through the same atomic operations, exactly as the CPU and the GPU of a
// Kaveri APU operate on one coherent memory image.
//
// KvRuntime is intentionally device-agnostic: all timing lives in the
// executor; RunTask only does the real work and updates the batch's
// measured counters.
class KvRuntime {
 public:
  // KC samples every Nth GET hit's frequency counter for the profiler.
  static constexpr uint32_t kFrequencySampleStride = 8;  // power of two

  struct Options {
    SlabAllocator::Options slab;
    CuckooHashTable::Options index;
  };

  explicit KvRuntime(const Options& options);
  ~KvRuntime();
  KvRuntime(const KvRuntime&) = delete;
  KvRuntime& operator=(const KvRuntime&) = delete;

  // Publishes the runtime's component counters (cuckoo probes and
  // displacements, allocator traffic, epoch reclaim depth, live objects)
  // into `registry` as collector-backed series sampled at exposition time.
  // The dido_index_* and dido_mem_* series are sums of per-batch tallies:
  // they advance when a batch retires, when a direct call (Put, GetValue,
  // DeleteKey, Preload) returns and, for frees, when the epoch deleter
  // frees an object, never per operation.  Each series is monotone; one
  // scrape is not an atomic snapshot across series (see TallyShards).
  // Undone on destruction or by re-registering against nullptr; the
  // registry must therefore outlive this runtime (or be detached first).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  // Attaches the (opt-in) durability tier: once set, every applied SET and
  // DELETE — pipeline stages and the direct API alike — appends to the
  // oplog, and the direct mutators additionally hold their return until the
  // record is durable (write-through mode).  Attach before traffic flows;
  // recovery replay runs *before* attaching so it is not re-logged.
  void set_durability(durability::DurabilityManager* manager) {
    durability_ = manager;
  }
  durability::DurabilityManager* durability() const { return durability_; }

  CuckooHashTable& index() { return *index_; }
  MemoryManager& memory() { return *memory_; }
  // Reclamation authority for everything the index unlinks: evicted
  // victims, replaced SET versions, DELETE removals.  Pipeline threads
  // register as participants; readers pin around candidate access.
  EpochManager& epoch() { return epoch_; }

  // Current profiler sampling epoch (bumped by the workload profiler).
  // Relaxed: the epoch is a monotone sampling label read by KC stage
  // threads; a one-batch-stale read only shifts which epoch an access is
  // attributed to, it cannot corrupt state.
  uint64_t sampling_epoch() const {
    return sampling_epoch_.load(std::memory_order_relaxed);
  }
  void set_sampling_epoch(uint64_t epoch) {
    sampling_epoch_.store(epoch, std::memory_order_relaxed);
  }

  // Loads `target_objects` objects of the dataset's sizes (keys
  // 0..target-1), stopping after the first SET that had to evict (memory is
  // full).  Returns the number of objects resident.
  uint64_t Preload(const DatasetSpec& dataset, uint64_t target_objects);

  // --- batch-global tasks ---

  // The per-query stage kernels below carry DIDO_HOT (transitively
  // lock/alloc/syscall/blocking-free, machine-checked by the analyzer's
  // hot pass) and/or DIDO_MUST_RESPOND (every error-guarded early exit
  // produces a response status or bumps an error counter — the static
  // half of the chaos suite's exactly-once arithmetic).

  // PP: parses every frame in the batch into QueryRecords and hashes keys.
  Status RunPacketProcessing(QueryBatch* batch) DIDO_HOT;

  // --- range tasks: operate on queries [begin, end) ---

  // MM: allocates objects for SETs, recording evictions.  DIDO_COLD, not
  // DIDO_HOT: allocation and the eviction cycle are the paper's explicit
  // off-hot-path stage, so the hot pass stops its walk here instead of
  // flagging MM for doing its job.
  void RunMemoryManagement(QueryBatch* batch, size_t begin, size_t end)
      DIDO_COLD DIDO_MUST_RESPOND;
  // IN.S: collects index candidates for GETs.
  void RunIndexSearch(QueryBatch* batch, size_t begin, size_t end) DIDO_HOT;
  // IN.I: publishes SET objects in the index.
  void RunIndexInsert(QueryBatch* batch, size_t begin, size_t end)
      DIDO_HOT DIDO_MUST_RESPOND;
  // IN.D: explicit DELETE queries.  A SET's superseded version is unlinked
  // atomically by the Insert CAS (as in Mega-KV's in-place index update),
  // so there is never a window in which the key is absent; the unlink is
  // nonetheless *counted* as the Delete operation the paper pairs with
  // every SET, and its cost is charged to the IN.D task wherever the
  // configuration places it.  Eviction stubs are no longer resolved here:
  // an eviction's index Delete must precede the victim's retirement, so it
  // runs inline in MM (see AllocateWithEviction) and only its count flows
  // through the measurements.
  void RunIndexDelete(QueryBatch* batch, size_t begin, size_t end)
      DIDO_HOT DIDO_MUST_RESPOND;
  // KC: verifies candidates by full-key comparison; sets the CLOCK
  // reference bit and samples the access frequency.
  void RunKeyComparison(QueryBatch* batch, size_t begin, size_t end)
      DIDO_HOT DIDO_MUST_RESPOND;
  // RD: copies values into the staging buffer (only when RD and WR live in
  // different stages; otherwise it just validates reachability).
  void RunReadValue(QueryBatch* batch, size_t begin, size_t end) DIDO_HOT;
  // WR: encodes response records into response frames.
  void RunWriteResponse(QueryBatch* batch, size_t begin, size_t end)
      DIDO_MUST_RESPOND;

  // Dispatches a range task by kind.  RV/PP/SD are not dispatchable here.
  void RunRangeTask(TaskKind task, QueryBatch* batch, size_t begin,
                    size_t end);

  // Runs `stage`'s range tasks (IsRangeTask) over the whole batch, in stage
  // order, and calls `on_task(task)` after each one.  The one task loop:
  // the simulator, the live stage threads and the live inline paths all run
  // a stage through it.  The hook is a template parameter, so a no-op hook
  // compiles away.
  template <typename OnTask>
  void RunStage(const StageSpec& stage, QueryBatch* batch, OnTask&& on_task) {
    for (TaskKind task : stage.tasks) {
      if (!IsRangeTask(task)) continue;
      RunRangeTask(task, batch, 0, batch->size());
      on_task(task);
    }
  }
  void RunStage(const StageSpec& stage, QueryBatch* batch) {
    RunStage(stage, batch, [](TaskKind) {});
  }

  // Retires the batch: releases its epoch pin (making everything the batch
  // unlinked reclaimable two advances later), opportunistically advances
  // the epoch, derives the probe averages from the batch's index tally and
  // folds its index and memory tallies into the exported totals.
  void RetireBatch(QueryBatch* batch);

  // --- direct (non-pipelined) API used by DidoStore and tests ---

  Status Put(std::string_view key, std::string_view value);
  Result<std::string> GetValue(std::string_view key);
  Status DeleteKey(std::string_view key);
  uint64_t live_objects() const;

 private:
  // Allocates storage for (key, value), driving the quarantine cycle under
  // memory pressure: each round detaches a CLOCK victim, drops its stale
  // index entry, retires it to the epoch manager, attempts a reclaim, and
  // retries.  Bounded; on exhaustion returns kOutOfMemory.  Victims are
  // appended to `evictions` (required non-null); their index entries are
  // already gone when this returns.  The allocation, every victim and a
  // definitive failure are counted into `tally` (required non-null).  When
  // `retries` is non-null, every attempt beyond the first is counted into
  // it (feeds DegradationStats).  Must not be called while the calling
  // thread holds an epoch pin — the reclaim it waits for could then never
  // happen.
  Result<KvObject*> AllocateWithEviction(
      std::string_view key, std::string_view value, uint32_t version,
      std::vector<SlabAllocator::EvictedObject>* evictions,
      MemoryManager::Counters* tally, uint64_t* retries = nullptr)
      DIDO_TRANSFERS_OWNERSHIP;

  // The direct (out-of-batch) SET shared by Put and Preload: allocates
  // under eviction, then under a pin inserts, publishes, and retires the
  // replaced version (or the new object, when its Insert fails).  Counts
  // into the two tallies.
  Status ApplySet(std::string_view key, std::string_view value,
                  uint32_t version, CuckooHashTable::Counters* index_tally,
                  MemoryManager::Counters* mem_tally);

  std::unique_ptr<CuckooHashTable> index_;
  // Built before epoch_ (declared below) and only stores its reference.
  std::unique_ptr<MemoryManager> memory_;
  // Optional durability tier (not owned); null = volatile store (default).
  durability::DurabilityManager* durability_ = nullptr;
  // Metrics registry this runtime registered its collector with.
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  std::atomic<uint64_t> sampling_epoch_{1};
  // Relaxed fetch_add: versions only need to be unique, not ordered with
  // respect to any other memory — the MM stage and the direct Put API may
  // allocate concurrently.
  std::atomic<uint32_t> version_counter_{0};
  // Declared last: destroyed first, so the drain its destructor performs
  // runs while memory_ (the deleters' target) is still alive.
  EpochManager epoch_;
};

}  // namespace dido

#endif  // DIDO_PIPELINE_KV_RUNTIME_H_
