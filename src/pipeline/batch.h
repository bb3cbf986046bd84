#ifndef DIDO_PIPELINE_BATCH_H_
#define DIDO_PIPELINE_BATCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "index/cuckoo_hash_table.h"
#include "mem/kv_object.h"
#include "mem/memory_manager.h"
#include "net/codec.h"
#include "net/sim_nic.h"
#include "pipeline/pipeline_config.h"
#include "sync/epoch.h"

namespace dido {

// Per-query state threaded through the pipeline tasks.  Key/value views
// alias the batch's input frames, which stay alive for the whole batch.
// Trivially copyable, so PP appends records into reused capacity with no
// per-record construction or destruction.
struct QueryRecord {
  QueryOp op = QueryOp::kGet;
  std::string_view key;
  std::string_view value;  // SET payload
  uint64_t hash = 0;

  // IN.S output: signature-matching candidates awaiting KC verification.
  std::array<KvObject*, 4> candidates{};
  uint8_t num_candidates = 0;

  // KC output (GET) or MM output (SET).
  KvObject* object = nullptr;
  // Set once IN.I has replaced this SET key's old version in place.
  bool old_version_unlinked = false;

  // RD staging-buffer slice (when RD and WR run in different stages).
  uint32_t staged_offset = 0;
  uint32_t staged_len = 0;

  ResponseStatus status = ResponseStatus::kError;
};
static_assert(std::is_trivially_copyable_v<QueryRecord>);

// Everything measured while actually executing a batch.  These counters are
// the "measured workload characteristics" that parameterize the timing
// simulation, and (for the previous batch) the input of the profiler.
struct BatchMeasurements {
  uint64_t num_queries = 0;
  uint64_t num_frames = 0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;  // replacements + explicit deletes + evictions
  uint64_t failed_inserts = 0;
  // The batch's own index and allocation counts, added by its tasks as
  // plain fields (one stage thread owns the batch at a time).  RetireBatch
  // derives the probe averages below from them and folds them into the
  // runtime's exported totals.
  CuckooHashTable::Counters index;
  MemoryManager::Counters mem;
  // Robustness counters (feed LivePipeline's DegradationStats):
  // frames whose record stream failed to parse (PP skips the frame's
  // remainder and continues), transient-error retries burned on the SET
  // path (allocation + index insert), and queries answered with an
  // explicit error response instead of being dropped.
  uint64_t malformed_frames = 0;
  uint64_t set_retries = 0;
  uint64_t error_responses = 0;
  // Mutations the durability log refused (wedged/closed log): the op is
  // applied and answered, but its ack is no longer covered by the log.
  uint64_t log_append_failures = 0;
  double sum_key_bytes = 0.0;
  double sum_value_bytes = 0.0;      // over SET payloads
  double sum_hit_value_bytes = 0.0;  // over GET-hit objects
  // Access-frequency counter values sampled by KC (every Nth GET hit),
  // feeding the profiler's Zipf-skew estimator (paper Section IV-B).
  // QueryBatch::Clear keeps its capacity.
  std::vector<uint32_t> sampled_frequencies;
  // Average cuckoo buckets probed per operation in this batch.
  double search_probes = 0.0;
  double insert_probes = 0.0;
  double delete_probes = 0.0;

  double get_ratio() const {
    return num_queries > 0
               ? static_cast<double>(gets) / static_cast<double>(num_queries)
               : 0.0;
  }
  double hit_ratio() const {
    return gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets)
                    : 1.0;
  }
};

// One batch of queries moving through the pipeline.  The active pipeline
// configuration is embedded in the batch (paper Section III-B1: "we embed
// the pipeline information into each batch"), so a configuration change
// applies cleanly at a batch boundary.
//
// A batch is reusable: Clear() resets it but keeps every buffer's
// capacity, and AppendFrame hands the frame buffers of earlier uses back
// to RV and WR, so a recycled batch fills without heap allocation once its
// buffers have reached their steady-state sizes.
struct QueryBatch {
  uint64_t sequence = 0;
  PipelineConfig config;

  std::vector<Frame> frames;         // owned input frames
  std::vector<QueryRecord> queries;  // parsed queries (PP output)

  // Epoch pin protecting every index candidate collected by this batch's
  // IN.S from reclamation until the batch retires.  Shared-pin flavour
  // because the pin crosses stage threads with the batch (acquired by the
  // thread running IN.S, released — possibly elsewhere — by RetireBatch).
  // Deliberately NOT acquired before MM: a batch pinned during its own
  // allocations would block the epoch advance its own eviction victims
  // need, turning memory pressure into a self-inflicted stall.
  EpochPin epoch_pin;

  std::vector<uint8_t> staging;   // RD output buffer (sequentialized values)
  std::vector<Frame> responses;   // WR output frames

  // Highest oplog LSN appended by this batch's mutations (0 = none).  In
  // write-through mode the batch's responses are held until this LSN is
  // durable (group commit releases whole batches at once).
  uint64_t max_lsn = 0;

  BatchMeasurements measurements;
  // Live pipeline only: set by the producer immediately before pushing the
  // batch into an inter-stage queue; the consumer's (pop time - enqueued_at)
  // is the queue wait of its stage.  Written by the single thread that owns
  // the batch at that moment.
  std::chrono::steady_clock::time_point enqueued_at{};

  size_t size() const { return queries.size(); }

  // Appends an empty frame to `list` (`frames` or `responses`) and returns
  // it, reusing the payload buffer of a frame recycled by Clear() when one
  // is left.
  Frame& AppendFrame(std::vector<Frame>* list);

  // Resets the batch for its next use (see the class comment).  Frames that
  // a consumer moved out recycle as empty buffers.
  void Clear();

 private:
  // Frames of earlier uses, payloads emptied but capacity kept.
  std::vector<Frame> spare_frames_;
};

}  // namespace dido

#endif  // DIDO_PIPELINE_BATCH_H_
