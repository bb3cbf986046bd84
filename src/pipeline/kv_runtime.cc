#include "pipeline/kv_runtime.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/logging.h"
#include "common/mapped_region.h"
#include "durability/durability.h"
#include "obs/metrics.h"

namespace dido {
namespace {

// Bound on the detach-retire-reclaim rounds one allocation may drive.
// The first kYieldingAllocationAttempts unproductive rounds yield; later
// ones sleep with exponential backoff capped at kMaxAllocationBackoff, so
// the bound spans ~50 ms and is only reached when pinned readers starve
// reclamation for that long.  64 bare yields last ~0.1 ms, less than the
// time slice of a reader preempted while pinned.
constexpr int kMaxAllocationAttempts = 64;
constexpr int kYieldingAllocationAttempts = 8;
constexpr std::chrono::microseconds kMaxAllocationBackoff(1000);

// Bound on IN.I re-attempts when the cuckoo index reports transient
// contention (kResourceBusy).  Capacity exhaustion (kCapacityFull) is
// terminal and never retried.
constexpr int kMaxInsertRetries = 8;

}  // namespace

KvRuntime::KvRuntime(const Options& options)
    : index_(std::make_unique<CuckooHashTable>(options.index)),
      memory_(std::make_unique<MemoryManager>(options.slab, epoch_)) {}

KvRuntime::~KvRuntime() { RegisterMetrics(nullptr); }

void KvRuntime::RegisterMetrics(obs::MetricsRegistry* registry) {
  char id[64];
  std::snprintf(id, sizeof(id), "kv_runtime:%p",
                static_cast<const void*>(this));
  if (metrics_registry_ != nullptr && metrics_registry_ != registry) {
    metrics_registry_->UnregisterCollector(id);
  }
  metrics_registry_ = registry;
  if (registry == nullptr) return;
  registry->RegisterCollector(id, [this](std::vector<obs::Sample>* samples) {
    const auto counter = [samples](const char* name, uint64_t value) {
      samples->push_back(
          obs::Sample{name, static_cast<double>(value), /*monotone=*/true});
    };
    const auto gauge = [samples](const char* name, double value) {
      samples->push_back(obs::Sample{name, value, /*monotone=*/false});
    };
    const CuckooHashTable::Counters index = index_->counters();
    counter("dido_index_searches_total", index.searches);
    counter("dido_index_search_buckets_probed_total",
            index.search_buckets_probed);
    counter("dido_index_search_primary_hits_total", index.search_primary_hits);
    counter("dido_index_inserts_total", index.inserts);
    counter("dido_index_insert_buckets_probed_total",
            index.insert_buckets_probed);
    counter("dido_index_displacements_total", index.displacements);
    counter("dido_index_deletes_total", index.deletes);
    counter("dido_index_delete_buckets_probed_total",
            index.delete_buckets_probed);
    counter("dido_index_failed_inserts_total", index.failed_inserts);
    gauge("dido_index_load_factor", index_->LoadFactor());
    const MemoryManager::Counters mem = memory_->counters();
    counter("dido_mem_allocations_total", mem.allocations);
    counter("dido_mem_evictions_total", mem.evictions);
    counter("dido_mem_frees_total", mem.frees);
    counter("dido_mem_failed_allocations_total", mem.failed_allocations);
    const EpochManager::Stats epoch_stats = epoch_.stats();
    gauge("dido_epoch_global", static_cast<double>(epoch_stats.global_epoch));
    counter("dido_epoch_retired_total", epoch_stats.retired);
    counter("dido_epoch_reclaimed_total", epoch_stats.reclaimed);
    // Reclaim depth: objects quarantined in limbo lists right now.
    gauge("dido_epoch_quarantined", static_cast<double>(epoch_stats.quarantined));
    counter("dido_epoch_advances_total", epoch_stats.advances);
    gauge("dido_live_objects", static_cast<double>(live_objects()));
    // Process-wide, read from /proc at exposition time only: shows whether
    // the arena and index mappings really sit on huge pages.
    gauge("dido_process_anon_huge_bytes",
          static_cast<double>(ProcessAnonHugeBytes()));
  });
}

Result<KvObject*> KvRuntime::AllocateWithEviction(
    std::string_view key, std::string_view value, uint32_t version,
    std::vector<SlabAllocator::EvictedObject>* evictions,
    MemoryManager::Counters* tally, uint64_t* retries) {
  DIDO_CHECK(evictions != nullptr);
  for (int attempt = 0; attempt < kMaxAllocationAttempts; ++attempt) {
    if (attempt > 0 && retries != nullptr) *retries += 1;
    const size_t first_new = evictions->size();
    Result<KvObject*> object =
        memory_->AllocateObject(key, value, version, evictions);
    tally->evictions += evictions->size() - first_new;
    for (size_t v = first_new; v < evictions->size(); ++v) {
      const SlabAllocator::EvictedObject& victim = (*evictions)[v];
      // Unlink before retiring: once the stale entry is gone no new reader
      // can pick the pointer up, so two epoch advances later the chunk is
      // provably unreachable.  The Remove may miss (a racing SET already
      // replaced the entry) — the victim is ours to retire either way.
      index_->Remove(CuckooHashTable::HashKey(victim.key), victim.stale_ptr)
          .ok();
      memory_->RetireDetached(victim.stale_ptr);
    }
    if (object.ok()) {
      tally->allocations += 1;
      return object;
    }
    if (object.status().code() != StatusCode::kOutOfMemory) {
      tally->failed_allocations += 1;
      return object;
    }
    // An eviction quarantines the victim's chunk instead of handing it to
    // this allocation; it only comes back through an epoch advance.
    if (epoch_.TryReclaim() > 0) continue;
    if (attempt < kYieldingAllocationAttempts) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::min(
          kMaxAllocationBackoff,
          std::chrono::microseconds(
              1 << std::min(attempt - kYieldingAllocationAttempts, 10))));
    }
  }
  tally->failed_allocations += 1;
  return Status::OutOfMemory("quarantined evictions outpaced reclamation");
}

uint64_t KvRuntime::Preload(const DatasetSpec& dataset,
                            uint64_t target_objects) {
  std::vector<uint8_t> key_buffer(dataset.key_size);
  std::vector<uint8_t> value_buffer(dataset.value_size);
  // The whole preload counts as one batch.
  CuckooHashTable::Counters index_tally;
  MemoryManager::Counters mem_tally;
  for (uint64_t i = 0; i < target_objects; ++i) {
    MaterializeKey(i, dataset.key_size, key_buffer.data());
    MaterializeValue(i, dataset.value_size, 0, value_buffer.data());
    const std::string_view key(reinterpret_cast<const char*>(key_buffer.data()),
                               dataset.key_size);
    const std::string_view value(
        reinterpret_cast<const char*>(value_buffer.data()),
        dataset.value_size);
    // The first eviction means memory is full: a further SET would only
    // displace an earlier one.
    if (!ApplySet(key, value, 0, &index_tally, &mem_tally).ok() ||
        mem_tally.evictions > 0) {
      break;
    }
  }
  index_->Accumulate(index_tally);
  memory_->Accumulate(mem_tally);
  return index_->LiveEntries();
}

Status KvRuntime::RunPacketProcessing(QueryBatch* batch) {
  BatchMeasurements& m = batch->measurements;
  for (const Frame& frame : batch->frames) {
    size_t offset = 0;
    while (offset < frame.payload.size()) {
      RequestView view;
      const Status decoded = DecodeRequest(frame.payload.data(),
                                           frame.payload.size(), &offset,
                                           &view);
      if (!decoded.ok()) {
        // A malformed record poisons the rest of its frame (record
        // boundaries are derived from the lengths just rejected), but not
        // the batch: count the frame and move to the next one.  Records
        // already parsed from this frame stay admitted.
        m.malformed_frames += 1;
        break;
      }
      QueryRecord record;
      record.op = view.op;
      record.key = view.key;
      record.value = view.value;
      record.hash = CuckooHashTable::HashKey(view.key);
      m.sum_key_bytes += static_cast<double>(view.key.size());
      if (view.op == QueryOp::kGet) {
        m.gets += 1;
      } else if (view.op == QueryOp::kSet) {
        m.sets += 1;
        m.sum_value_bytes += static_cast<double>(view.value.size());
      }
      // dido-analyze: allow(hot): per-batch ingest buffer; a recycled
      // batch keeps its capacity (QueryBatch::Clear), so the push only
      // grows the buffer during the first batches.
      batch->queries.push_back(record);
    }
  }
  m.num_queries = batch->queries.size();
  m.num_frames = batch->frames.size();
  return Status::Ok();
}

void KvRuntime::RunMemoryManagement(QueryBatch* batch, size_t begin,
                                    size_t end) {
  BatchMeasurements& m = batch->measurements;
  // One scratch vector for the whole range: the victims' index entries are
  // gone by the time AllocateWithEviction returns, only their count stays.
  std::vector<SlabAllocator::EvictedObject> evicted;
  for (size_t i = begin; i < end && i < batch->queries.size(); ++i) {
    QueryRecord& record = batch->queries[i];
    if (record.op != QueryOp::kSet) continue;
    evicted.clear();
    // relaxed: versions only need to be distinct, not ordered across keys.
    Result<KvObject*> object = AllocateWithEviction(
        record.key, record.value,
        version_counter_.fetch_add(1, std::memory_order_relaxed) + 1,
        &evicted, &m.mem, &m.set_retries);
    // Each eviction's paired index Delete already ran inline (the unlink
    // must precede the victim's retirement); count it where the paper's
    // Figure 6 analysis expects it.
    m.deletes += evicted.size();
    if (!object.ok()) {
      // Retry budget exhausted inside AllocateWithEviction: the SET is
      // answered with an error response rather than dropped, and counted
      // as a failed insert (it never reaches IN.I).
      record.status = ResponseStatus::kError;
      m.failed_inserts += 1;
      continue;
    }
    record.object = *object;
    record.status = ResponseStatus::kStored;
  }
}

void KvRuntime::RunIndexSearch(QueryBatch* batch, size_t begin, size_t end) {
  // First IN.S execution on this batch pins the epoch; the pin travels
  // with the batch (stages hand it off, never run IN.S concurrently) and
  // is released by RetireBatch, keeping every candidate collected below
  // dereferenceable by KC/RD/WR on any stage thread.
  if (!batch->epoch_pin.held()) batch->epoch_pin = EpochPin(epoch_);
  BatchMeasurements& m = batch->measurements;
  for (size_t i = begin; i < end && i < batch->queries.size(); ++i) {
    QueryRecord& record = batch->queries[i];
    if (record.op != QueryOp::kGet) continue;
    KvObject* candidates[4];
    const int n = index_->Search(record.hash, candidates, 4, &m.index);
    record.num_candidates = static_cast<uint8_t>(n);
    for (int c = 0; c < n; ++c) {
      record.candidates[static_cast<size_t>(c)] = candidates[c];
    }
  }
}

void KvRuntime::RunIndexInsert(QueryBatch* batch, size_t begin, size_t end) {
  // IN.S normally pinned this batch already (task order puts IN.S first);
  // ensure it regardless — Insert probes resident retire-able objects and
  // must never run unpinned under a config that skips the search task.
  if (!batch->epoch_pin.held()) batch->epoch_pin = EpochPin(epoch_);
  BatchMeasurements& m = batch->measurements;
  for (size_t i = begin; i < end && i < batch->queries.size(); ++i) {
    QueryRecord& record = batch->queries[i];
    if (record.op != QueryOp::kSet || record.object == nullptr) continue;
    KvObject* replaced = nullptr;
    Status status =
        index_->Insert(record.hash, record.object, &replaced, &m.index);
    // kResourceBusy is transient (a concurrent displacement path holds the
    // buckets): retry with exponential backoff before declaring failure.
    // kCapacityFull means displacement itself was exhausted — terminal.
    for (int attempt = 0;
         !status.ok() && status.code() == StatusCode::kResourceBusy &&
         attempt < kMaxInsertRetries;
         ++attempt) {
      m.set_retries += 1;
      // dido-analyze: allow(hot): bounded exponential backoff taken only
      // on transient kResourceBusy (a concurrent displacement holds the
      // buckets) — never on the success path; spinning here instead would
      // lengthen the very displacement window being waited out.
      std::this_thread::sleep_for(
          std::chrono::microseconds(1u << std::min(attempt, 6)));
      status = index_->Insert(record.hash, record.object, &replaced, &m.index);
    }
    if (!status.ok()) {
      // Never published, so no eviction can have picked it; RetireObject
      // still arbitrates the detach like for any other object.
      memory_->RetireObject(record.object);
      record.object = nullptr;
      record.status = ResponseStatus::kError;
      m.failed_inserts += 1;
      continue;
    }
    // Only now may the hand evict it: the eviction's index Remove has an
    // entry to drop.  Published earlier, a victim taken between MM and
    // this Insert would be retired while the Insert publishes its pointer.
    SlabAllocator::Publish(record.object);
    m.inserts += 1;
    if (durability_ != nullptr) {
      // Log after the index apply so everything with lsn <= a checkpoint's
      // boundary is in memory when the snapshot iteration starts.  The
      // enqueue is all the hot path pays (AppendSet is the cold hand-off to
      // the log's writer thread); the ack wait happens at batch retirement.
      const uint64_t lsn = durability_->AppendSet(record.key, record.value);
      if (lsn == 0) {
        m.log_append_failures += 1;  // wedged log: op applied, ack uncovered
      } else if (lsn > batch->max_lsn) {
        batch->max_lsn = lsn;
      }
    }
    if (replaced != nullptr) {
      // Old version superseded in place; quarantined until concurrent
      // readers provably dropped it.
      memory_->RetireObject(replaced);
      record.old_version_unlinked = true;
      m.deletes += 1;  // counted as the Delete the paper pairs with a SET
    }
  }
}

void KvRuntime::RunIndexDelete(QueryBatch* batch, size_t begin, size_t end) {
  // Same batch-pin guarantee as RunIndexInsert: Delete's full-key compare
  // dereferences resident objects.
  if (!batch->epoch_pin.held()) batch->epoch_pin = EpochPin(epoch_);
  BatchMeasurements& m = batch->measurements;
  for (size_t i = begin; i < end && i < batch->queries.size(); ++i) {
    QueryRecord& record = batch->queries[i];
    if (record.op == QueryOp::kDelete) {
      KvObject* removed = nullptr;
      if (index_->Delete(record.hash, record.key, &removed, &m.index).ok()) {
        memory_->RetireObject(removed);
        record.status = ResponseStatus::kDeleted;
        m.deletes += 1;
        if (durability_ != nullptr) {
          const uint64_t lsn = durability_->AppendDelete(record.key);
          if (lsn == 0) {
            m.log_append_failures += 1;
          } else if (lsn > batch->max_lsn) {
            batch->max_lsn = lsn;
          }
        }
      } else {
        record.status = ResponseStatus::kMiss;
      }
      continue;
    }
  }
}

void KvRuntime::RunKeyComparison(QueryBatch* batch, size_t begin, size_t end) {
  // The candidates compared below are IN.S results whose storage is only
  // kept alive by the batch pin (TouchObject additionally requires it).
  if (!batch->epoch_pin.held()) batch->epoch_pin = EpochPin(epoch_);
  BatchMeasurements& m = batch->measurements;
  for (size_t i = begin; i < end && i < batch->queries.size(); ++i) {
    QueryRecord& record = batch->queries[i];
    if (record.op != QueryOp::kGet) continue;
    record.object = nullptr;
    for (uint8_t c = 0; c < record.num_candidates; ++c) {
      KvObject* candidate = record.candidates[c];
      if (candidate != nullptr && candidate->Key() == record.key) {
        record.object = candidate;
        break;
      }
    }
    if (record.object != nullptr) {
      record.status = ResponseStatus::kOk;
      const uint32_t freq = record.object->RecordAccess(sampling_epoch());
      if ((m.hits & (kFrequencySampleStride - 1)) == 0) {
        // dido-analyze: allow(hot): profiler statistic appended for one
        // hit in kFrequencySampleStride (8); amortized growth of a small
        // per-batch vector, not a per-query allocation.
        m.sampled_frequencies.push_back(freq);
      }
      memory_->TouchObject(record.object);
      m.hits += 1;
      m.sum_hit_value_bytes += static_cast<double>(record.object->value_size);
    } else {
      record.status = ResponseStatus::kMiss;
      m.misses += 1;
    }
  }
}

void KvRuntime::RunReadValue(QueryBatch* batch, size_t begin, size_t end) {
  const bool staged =
      !batch->config.SameStage(TaskKind::kRd, TaskKind::kWr);
  if (!staged) return;  // WR reads the object directly in the same stage
  for (size_t i = begin; i < end && i < batch->queries.size(); ++i) {
    QueryRecord& record = batch->queries[i];
    if (record.op != QueryOp::kGet || record.object == nullptr) continue;
    const std::string_view value = record.object->Value();
    record.staged_offset = static_cast<uint32_t>(batch->staging.size());
    record.staged_len = static_cast<uint32_t>(value.size());
    // dido-analyze: allow(hot): the staging copy IS the RD stage's work
    // when RD and WR run in different stages (paper Fig. 4 charges the
    // value copy to RD); the per-batch buffer reaches steady-state
    // capacity after the first batches.
    batch->staging.insert(batch->staging.end(), value.begin(), value.end());
  }
}

void KvRuntime::RunWriteResponse(QueryBatch* batch, size_t begin, size_t end) {
  BatchMeasurements& m = batch->measurements;
  // The open response frame.  Valid until the next AppendFrame, which only
  // this loop calls on `responses`.
  Frame* current = nullptr;
  for (size_t i = begin; i < end && i < batch->queries.size(); ++i) {
    QueryRecord& record = batch->queries[i];
    std::string_view value;
    ResponseStatus status = record.status;
    if (status == ResponseStatus::kError) m.error_responses += 1;
    if (record.op == QueryOp::kGet && record.object != nullptr) {
      if (record.staged_len > 0) {
        value = std::string_view(
            reinterpret_cast<const char*>(batch->staging.data()) +
                record.staged_offset,
            record.staged_len);
      } else {
        value = record.object->Value();
      }
    }
    const size_t needed = kRecordHeaderBytes + record.key.size() + value.size();
    if (current == nullptr ||
        current->payload.size() + needed > kMaxFramePayload) {
      current = &batch->AppendFrame(&batch->responses);
    }
    EncodeResponse(record.op, status, record.key, value, &current->payload);
  }
}

void KvRuntime::RunRangeTask(TaskKind task, QueryBatch* batch, size_t begin,
                             size_t end) {
  switch (task) {
    case TaskKind::kMm:
      RunMemoryManagement(batch, begin, end);
      return;
    case TaskKind::kInSearch:
      RunIndexSearch(batch, begin, end);
      return;
    case TaskKind::kInInsert:
      RunIndexInsert(batch, begin, end);
      return;
    case TaskKind::kInDelete:
      RunIndexDelete(batch, begin, end);
      return;
    case TaskKind::kKc:
      RunKeyComparison(batch, begin, end);
      return;
    case TaskKind::kRd:
      RunReadValue(batch, begin, end);
      return;
    case TaskKind::kWr:
      RunWriteResponse(batch, begin, end);
      return;
    case TaskKind::kRv:
    case TaskKind::kPp:
    case TaskKind::kSd:
      DIDO_LOG(Fatal) << "task " << TaskKindName(task)
                      << " is not a range task";
  }
}

void KvRuntime::RetireBatch(QueryBatch* batch) {
  // Nothing dereferences this batch's candidates past WR: release the pin,
  // then opportunistically advance — with batches retiring continuously
  // this is what keeps the quarantine draining in steady state.
  batch->epoch_pin.Release();
  epoch_.TryReclaim();

  // Probe averages from the batch's own tally, so they count this batch's
  // operations only, however many batches are in flight.
  BatchMeasurements& m = batch->measurements;
  const auto per_op = [](uint64_t probes, uint64_t ops) {
    return ops > 0 ? static_cast<double>(probes) / static_cast<double>(ops)
                   : 0.0;
  };
  m.search_probes = per_op(m.index.search_buckets_probed, m.index.searches);
  m.insert_probes = per_op(
      m.index.insert_buckets_probed + m.index.displacements, m.index.inserts);
  m.delete_probes = per_op(m.index.delete_buckets_probed, m.index.deletes);
  index_->Accumulate(m.index);
  memory_->Accumulate(m.mem);
}

Status KvRuntime::ApplySet(std::string_view key, std::string_view value,
                           uint32_t version,
                           CuckooHashTable::Counters* index_tally,
                           MemoryManager::Counters* mem_tally) {
  std::vector<SlabAllocator::EvictedObject> evictions;
  Result<KvObject*> object =
      AllocateWithEviction(key, value, version, &evictions, mem_tally);
  if (!object.ok()) return object.status();
  // Pin AFTER allocation: holding a pin across AllocateWithEviction would
  // block the epoch advances its own retry loop waits for
  // (self-starvation).  From here the Insert probes (and may replace)
  // retire-able objects.
  EpochGuard guard(epoch_);
  KvObject* replaced = nullptr;
  const Status status = index_->Insert(CuckooHashTable::HashKey(key), *object,
                                      &replaced, index_tally);
  if (!status.ok()) {
    memory_->RetireObject(*object);
    return status;
  }
  SlabAllocator::Publish(*object);
  if (replaced != nullptr) memory_->RetireObject(replaced);
  return Status::Ok();
}

Status KvRuntime::Put(std::string_view key, std::string_view value) {
  // relaxed: versions only need to be distinct, not ordered across keys.
  const uint32_t version =
      version_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  CuckooHashTable::Counters index_tally;  // a batch of one
  MemoryManager::Counters mem_tally;
  const Status status =
      ApplySet(key, value, version, &index_tally, &mem_tally);
  index_->Accumulate(index_tally);
  memory_->Accumulate(mem_tally);
  DIDO_RETURN_IF_ERROR(status);
  if (durability_ != nullptr) {
    // Direct API is write-through end to end: the call returns only after
    // the record is durable (or the bounded wait degrades, counted there).
    // ApplySet's pin is already released, so a group-commit wait does not
    // stall reclamation.
    durability_->WaitDurable(durability_->AppendSet(key, value));
  }
  return Status::Ok();
}

Result<std::string> KvRuntime::GetValue(std::string_view key) {
  // The pin keeps the found object's storage alive from the index probe
  // through the value copy, even if a concurrent eviction or overwrite
  // retires it in between.
  EpochGuard guard(epoch_);
  CuckooHashTable::Counters tally;  // a batch of one
  KvObject* object =
      index_->SearchVerified(CuckooHashTable::HashKey(key), key, &tally);
  index_->Accumulate(tally);
  if (object == nullptr) return Status::NotFound();
  object->RecordAccess(sampling_epoch());
  memory_->TouchObject(object);
  return std::string(object->Value());
}

Status KvRuntime::DeleteKey(std::string_view key) {
  {
    // Delete compares resident keys and RetireObject reads the unlinked
    // object's detach flag — both need the pin to span them.  Scoped so the
    // durable wait below runs unpinned.
    EpochGuard guard(epoch_);
    KvObject* removed = nullptr;
    CuckooHashTable::Counters tally;  // a batch of one
    const Status status =
        index_->Delete(CuckooHashTable::HashKey(key), key, &removed, &tally);
    index_->Accumulate(tally);
    DIDO_RETURN_IF_ERROR(status);
    memory_->RetireObject(removed);
  }
  if (durability_ != nullptr) {
    durability_->WaitDurable(durability_->AppendDelete(key));
  }
  return Status::Ok();
}

uint64_t KvRuntime::live_objects() const { return index_->LiveEntries(); }

}  // namespace dido
