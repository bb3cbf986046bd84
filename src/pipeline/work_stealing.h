#ifndef DIDO_PIPELINE_WORK_STEALING_H_
#define DIDO_PIPELINE_WORK_STEALING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/sim_time.h"
#include "sim/device_spec.h"

namespace dido {

// CPU-GPU work-stealing tag array (paper Section III-B3).  Tag i guards the
// 64 queries [64*i, 64*(i+1)) of a batch — 64 being the wavefront width of
// the APU, the granularity the paper picks to amortize synchronization.
// Both processors Claim() chunks with an atomic compare-exchange; a chunk is
// processed by exactly one device.
class StealTagArray {
 public:
  static constexpr uint32_t kChunkQueries = 64;

  explicit StealTagArray(uint64_t num_queries);

  uint64_t num_chunks() const { return num_chunks_; }

  // Claims the lowest unclaimed chunk for `device` (FIFO order, as queries
  // are buffered FIFO per the paper).  Returns the chunk index, or -1 when
  // the batch is exhausted.
  int64_t Claim(Device device);

  // Device that claimed `chunk` (kCpu/kGpu), or nullopt-like -1 if free.
  int OwnerTag(uint64_t chunk) const;

  // Number of chunks claimed by `device` so far.
  uint64_t ClaimedBy(Device device) const;

  // True when every chunk has been claimed.
  bool Exhausted() const;

 private:
  static constexpr uint8_t kFree = 0;

  uint64_t num_chunks_;
  std::unique_ptr<std::atomic<uint8_t>[]> tags_;
  std::atomic<uint64_t> cursor_{0};
  std::atomic<uint64_t> claimed_cpu_{0};
  std::atomic<uint64_t> claimed_gpu_{0};
};

// Steal costs, shared by the cost model's Eq. 3 estimate and the
// simulator's chunk split (PipelineExecutor::ApplyWorkStealing), so both
// price a steal alike.
inline constexpr Micros kStealSetupUs = 1.5;  // one-time coordination per batch
inline constexpr Micros kStealSyncUs = 0.08;  // tag CAS handshake per chunk
// Relative speed of a thief running a stolen chunk vs. the owner running it
// natively (cold caches, divergence, repeated dispatch).
inline constexpr double kStealEfficiency = 0.75;

// Bounds of the batch size that fills a scheduling interval, in both the
// cost model's and the simulator's search.
inline constexpr uint64_t kMinBatch = 64;
inline constexpr uint64_t kMaxBatch = 1 << 17;

// A candidate batch size rounded down to whole steal chunks and clamped to
// [kMinBatch, kMaxBatch].
inline uint64_t ClampBatchSize(uint64_t queries) {
  return std::clamp<uint64_t>(
      queries - queries % StealTagArray::kChunkQueries, kMinBatch, kMaxBatch);
}

// Closed-form chunk split for the timing simulation, the discrete
// counterpart of the paper's Equation 3.  The owner device processes the
// bottleneck stage at `owner_chunk_us` per 64-query chunk plus
// `owner_residual_us` of non-stealable work (RV/PP/SD stay with the owner);
// the thief becomes available at `thief_start_us` into the interval and
// processes stolen chunks at `thief_chunk_us` (+`sync_us` each for the tag
// handshake).  Returns the number of chunks the thief should take and the
// resulting stage finish time.
struct StealSplit {
  uint64_t thief_chunks = 0;
  Micros finish_us = 0.0;
};

StealSplit SolveStealSplit(uint64_t total_chunks, Micros owner_chunk_us,
                           Micros owner_residual_us, Micros thief_start_us,
                           Micros thief_chunk_us, Micros sync_us);

}  // namespace dido

#endif  // DIDO_PIPELINE_WORK_STEALING_H_
