#ifndef DIDO_LIVE_LIVE_PIPELINE_H_
#define DIDO_LIVE_LIVE_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "net/sim_nic.h"
#include "pipeline/batch.h"
#include "pipeline/kv_runtime.h"
#include "pipeline/pipeline_config.h"

namespace dido {

namespace obs {
class AtomicHistogram;
class Counter;
class Gauge;
class MetricsRegistry;
class TraceCollector;
}  // namespace obs

// Robustness counters of one live-pipeline run: what was shed, retried,
// failed over and answered with an error.  Together with Stats::queries they
// carry the exactly-once-response invariant: every admitted query retires
// exactly once, so
//   ingested_queries - shed_queries == Stats::queries
// and the retired batches' response frames decode to exactly Stats::queries
// records (minus whatever a bounded response ring dropped, which
// responses_dropped counts).
struct DegradationStats {
  // Queries parsed by PP at ingress (before admission control).
  uint64_t ingested_queries = 0;
  // Frames whose record stream failed to decode; the frame's remainder is
  // skipped, already-parsed records stay admitted.
  uint64_t malformed_frames = 0;
  // Batches (and the queries they carried) dropped by admission control
  // because the first inter-stage queue stayed full past the timeout.
  // Shed batches never touch the index or the heap.
  uint64_t shed_batches = 0;
  uint64_t shed_queries = 0;
  // Transient-error re-attempts burned on the SET path (allocation retry
  // rounds + IN.I kResourceBusy backoff retries).
  uint64_t set_retries = 0;
  // Queries answered with an explicit kError response record after their
  // retry budget ran out.
  uint64_t error_responses = 0;
  // Watchdog transitions: healthy -> degraded (failover) and back.
  uint64_t failovers = 0;
  uint64_t repromotions = 0;
  // Batches executed inline on the ingress thread under the degraded
  // CPU-only configuration.
  uint64_t degraded_batches = 0;
  // Response frames lost to the (optional) bounded response ring.
  uint64_t responses_dropped = 0;
  // Durability degradations (zero when no durability tier is attached):
  // mutations the oplog refused (wedged log — applied but uncovered), and
  // batches whose write-through durable wait timed out (responses released
  // anyway, guarantee shed and counted).
  uint64_t log_append_failures = 0;
  uint64_t durable_wait_timeouts = 0;
};

// Wall-clock execution of a pipeline configuration with real OS threads.
//
// While the PipelineExecutor *simulates* APU timing around a single-threaded
// execution, LivePipeline actually pipelines: one worker thread per stage
// (the GPU stage's worker stands in for the GPU device — on the real APU it
// would be the OpenCL dispatch thread), connected by bounded batch queues.
// A batch is owned by exactly one stage thread at a time, so the runtime's
// task implementations need no extra locking; cross-batch concurrency
// exercises the same atomic index/heap paths as the coupled hardware.
//
// Graceful degradation (this is the part chaos tests exercise):
//  - A watchdog thread samples per-stage heartbeats.  A stage that stays
//    busy without a heartbeat for `stall_threshold_ms` triggers failover:
//    the ingress thread stops feeding the stalled stage graph and executes
//    batches inline under PipelineConfig::CpuOnly() (single stage).  Once
//    every stage has been idle with empty queues for `repromote_dwell_ms`,
//    the pipeline re-promotes to the configured topology.
//  - Admission control: when the first inter-stage queue stays full past
//    `admission_timeout_ms`, the freshly-parsed batch is shed *before* any
//    of its queries touch the store, and counted.
//  - Degradation never silently drops an admitted query: either the batch
//    retires (each query answered, possibly with kError) or the whole batch
//    is shed and counted.
//
// This mode is what `examples/live_server` runs; the simulator remains the
// vehicle for the paper's figures (its timing is calibrated, deterministic
// and hardware-independent).
class LivePipeline {
 public:
  struct Options {
    uint64_t batch_queries = 2048;  // queries ingested per batch
    size_t queue_depth = 4;         // bounded inter-stage queue length
    bool keep_responses = false;    // retain response frames for inspection

    // Watchdog / failover knobs.
    bool watchdog = true;
    uint64_t watchdog_interval_ms = 10;
    uint64_t stall_threshold_ms = 500;
    uint64_t repromote_dwell_ms = 100;
    // Admission-control timeout for space in the first inter-stage queue;
    // 0 blocks forever (no shedding).
    uint64_t admission_timeout_ms = 500;

    // When set, retired batches' response frames are pushed to this bounded
    // ring (simulating the TX ring SD feeds) instead of being retained via
    // keep_responses; ring overflow is counted as responses_dropped.  Must
    // outlive the pipeline.
    FrameRing* response_ring = nullptr;

    // --- observability (all optional; targets must outlive the pipeline) ---

    // Publishes per-stage latency histograms (execute / queue-wait wall
    // microseconds), batch and degradation counters, the degraded flag and
    // queue-depth gauges under the dido_live_* metric prefix.
    obs::MetricsRegistry* metrics = nullptr;
    // Records one span per stage execution, per KV task and per queue wait
    // (Chrome trace_event lanes: tid = stage index, watchdog = num_stages).
    obs::TraceCollector* trace = nullptr;
  };

  struct Stats {
    uint64_t batches = 0;
    uint64_t queries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t sets = 0;
    double wall_seconds = 0.0;
    double mops = 0.0;  // queries / wall time
    // QueryBatch objects this run had to allocate.  Retired and shed
    // batches are reused, so this stays at the number of batches in flight.
    uint64_t batches_allocated = 0;
    DegradationStats degradation;
  };

  LivePipeline(KvRuntime* runtime, const PipelineConfig& config,
               const Options& options);
  ~LivePipeline();

  LivePipeline(const LivePipeline&) = delete;
  LivePipeline& operator=(const LivePipeline&) = delete;

  // Spawns the stage threads and starts pulling queries from `source`
  // (which must outlive the pipeline; it is accessed only from the ingress
  // thread).  Fails if already running.  Thread-safe against concurrent
  // Start/Stop (serialized on an internal lifecycle mutex).
  Status Start(TrafficSource* source) DIDO_EXCLUDES(lifecycle_mu_);

  // Stops ingesting, drains in-flight batches, joins all threads.
  // Idempotent and safe to call from multiple threads.
  void Stop() DIDO_EXCLUDES(lifecycle_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }

  // True while the watchdog has the pipeline failed over to the degraded
  // configuration.  Relaxed: a flag only; readers re-check, and every
  // consequence of the transition flows through mutex-protected state.
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  // Snapshot of the retired-batch statistics.
  Stats Collect() const DIDO_EXCLUDES(stats_mu_);

  // Response frames of retired batches (only when keep_responses is set
  // and no response_ring is configured; call after Stop()).
  std::vector<Frame> TakeResponses() DIDO_EXCLUDES(stats_mu_);

 private:
  // Bounded MPMC queue of batches between adjacent stages.
  class BatchQueue {
   public:
    enum class SpaceWait { kReady, kTimeout, kClosed };

    explicit BatchQueue(size_t capacity) : capacity_(capacity) {}

    // Blocks while full; returns false if the queue was closed.
    bool Push(std::unique_ptr<QueryBatch> batch);
    // Blocks while empty; returns nullptr if closed and drained.
    std::unique_ptr<QueryBatch> Pop();
    // Waits until the queue has room (kReady), the timeout elapses with the
    // queue still full (kTimeout), or the queue closes (kClosed).  With a
    // single producer, kReady guarantees the next Push will not block.
    // timeout <= 0 waits indefinitely.
    SpaceWait WaitForSpace(std::chrono::milliseconds timeout);
    void Close();
    size_t size() const;

   private:
    const size_t capacity_;
    mutable Mutex mu_;
    CondVar cv_push_;
    CondVar cv_pop_;
    std::deque<std::unique_ptr<QueryBatch>> queue_ DIDO_GUARDED_BY(mu_);
    bool closed_ DIDO_GUARDED_BY(mu_) = false;
  };

  // Liveness signal of one stage thread, sampled by the watchdog.  All
  // fields relaxed: monotone heartbeat + boolean busy flag feed a
  // heuristic stall detector; a stale read only delays or hastens a
  // failover decision by one watchdog tick, it cannot corrupt state.
  struct StageHealth {
    std::atomic<uint64_t> heartbeat{0};
    std::atomic<bool> busy{false};
  };

  // Resolves metric handles (stage histograms, degradation counters,
  // gauges) from options_.metrics.  Handles stay null when no registry is
  // configured; every recording site guards.
  void SetupObservability();

  // Request-path loops: every error-guarded early exit must shed with a
  // counter or produce response frames (checked by the analyzer's resp
  // pass — the static half of `ingested - shed == responses`).
  void IngressLoop(TrafficSource* source) DIDO_MUST_RESPOND;
  // StageLoop is additionally DIDO_HOT: it wraps the per-query kernels,
  // so everything it reaches is on the live critical path.  Its justified
  // impurities (queue waits, metrics, tracing) carry allow(hot) comments
  // at the offending lines — the analyzer keeps the *unjustified* set
  // empty rather than pretending the loop is pure.
  void StageLoop(size_t stage_index) DIDO_HOT DIDO_MUST_RESPOND;
  void WatchdogLoop();
  // Runs stage `lane`'s tasks on `batch` on the calling thread, which owns
  // trace lane and health block `lane`; with `degraded`, runs the whole
  // degraded chain instead (lane 0, ingress thread).  Bumps the heartbeat
  // and emits a task span per task, then records the execute time since
  // `start` into the stage metrics and emits the stage span from
  // `trace_start`.  Stage 0 on the ingress thread, every stage thread
  // and the ingress inline branch all execute a batch through it.
  void ExecuteStage(size_t lane, bool degraded, QueryBatch* batch,
                    std::chrono::steady_clock::time_point start,
                    uint64_t trace_start);
  // SD + retire + stats accounting shared by the last stage thread and the
  // ingress thread's inline (single-stage / degraded) paths.
  void RetireAndCount(QueryBatch* batch, bool degraded_inline);
  // The batch free list.  The ingress thread takes a cleared batch (or
  // allocates one while nothing has retired yet); whoever retires or sheds
  // a batch hands it back, once per batch.
  std::unique_ptr<QueryBatch> AcquireBatch() DIDO_EXCLUDES(pool_mu_);
  void RecycleBatch(std::unique_ptr<QueryBatch> batch)
      DIDO_EXCLUDES(pool_mu_);

  KvRuntime* const runtime_;
  const PipelineConfig config_;
  const Options options_;
  // Stage plans: derived from config_ once at construction, read-only after.
  // dido-analyze: begin-allow(lock): set once at construction, then read-only
  std::vector<StageSpec> stages_;
  std::vector<StageSpec> degraded_stages_;
  // dido-analyze: end-allow(lock)

  // Serializes Start/Stop so two threads cannot join the same std::thread
  // objects or tear queues_ down concurrently.
  Mutex lifecycle_mu_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  // Watchdog-owned failover flag, read by the ingress thread each batch.
  // Relaxed everywhere (see degraded()).
  std::atomic<bool> degraded_{false};
  // queues_ / health_ are (re)built in Start before any worker thread is
  // spawned and torn down in Stop after every worker joined, both under
  // lifecycle_mu_; worker threads read them without the lock because thread
  // creation/join orders the accesses.
  // dido-analyze: begin-allow(lock): published before spawn, torn down after join
  std::vector<std::unique_ptr<BatchQueue>> queues_;  // queues_[i] feeds stage i+1
  std::vector<std::unique_ptr<StageHealth>> health_;  // health_[i] = stage i
  // dido-analyze: end-allow(lock)
  std::vector<std::thread> threads_ DIDO_GUARDED_BY(lifecycle_mu_);
  // dido-analyze: allow(lock): ingress thread only
  uint64_t sequence_ = 0;

  // Batches waiting for reuse.  Bounded by the batches a run keeps in
  // flight (one per stage plus the queued ones); kept across runs.
  Mutex pool_mu_;
  std::vector<std::unique_ptr<QueryBatch>> free_batches_
      DIDO_GUARDED_BY(pool_mu_);

  // Guards stats_, responses_ and start_time_ (written on Start, by the
  // retiring stage thread, and read by Collect from any thread).
  mutable Mutex stats_mu_;
  Stats stats_ DIDO_GUARDED_BY(stats_mu_);
  std::vector<Frame> responses_ DIDO_GUARDED_BY(stats_mu_);
  std::chrono::steady_clock::time_point start_time_
      DIDO_GUARDED_BY(stats_mu_);
  // response_ring->dropped() at Start, so Collect reports this run's drops
  // even when the caller reuses one ring across runs.
  uint64_t ring_dropped_at_start_ DIDO_GUARDED_BY(stats_mu_) = 0;

  // --- observability handles (resolved once in SetupObservability; all
  // null when options_.metrics is null) ---
  struct StageMetrics {
    obs::AtomicHistogram* execute_us = nullptr;
    obs::AtomicHistogram* queue_wait_us = nullptr;
    obs::Counter* batches = nullptr;
  };
  // dido-analyze: begin-allow(lock): set once at construction, then read-only
  std::vector<StageMetrics> stage_metrics_;   // indexed by stage
  // The degraded inline chain: execute time and degraded batch count.
  StageMetrics degraded_metrics_;
  std::vector<obs::Gauge*> queue_depth_gauges_;  // gauge i = queues_[i]
  obs::Counter* batches_retired_counter_ = nullptr;
  obs::Counter* queries_retired_counter_ = nullptr;
  obs::Counter* ingested_queries_counter_ = nullptr;
  obs::Counter* malformed_frames_counter_ = nullptr;
  obs::Counter* shed_batches_counter_ = nullptr;
  obs::Counter* shed_queries_counter_ = nullptr;
  obs::Counter* set_retries_counter_ = nullptr;
  obs::Counter* error_responses_counter_ = nullptr;
  obs::Counter* log_append_failures_counter_ = nullptr;
  obs::Counter* durable_timeouts_counter_ = nullptr;
  obs::Counter* failovers_counter_ = nullptr;
  obs::Counter* repromotions_counter_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  // dido-analyze: end-allow(lock)
};

}  // namespace dido

#endif  // DIDO_LIVE_LIVE_PIPELINE_H_
