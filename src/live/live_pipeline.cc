#include "live/live_pipeline.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "common/logging.h"
#include "durability/durability.h"
#include "faults/fault_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/device_spec.h"
#include "sync/epoch.h"

namespace dido {
namespace {

// Null-tolerant recording shims: every metric handle is null when no
// registry is configured, and recording must then cost one branch.
inline void Bump(obs::Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Add(n);
}
inline void Observe(obs::AtomicHistogram* histogram, double value) {
  // dido-analyze: allow(hot): stage threads record once per batch.
  if (histogram != nullptr) histogram->Record(value);
}
inline void Publish(obs::Gauge* gauge, double value) {
  if (gauge != nullptr) gauge->Set(value);
}

inline double MicrosBetween(std::chrono::steady_clock::time_point from,
                            std::chrono::steady_clock::time_point to) {
  return std::max(0.0,
                  std::chrono::duration<double, std::micro>(to - from).count());
}

// Emits a completed span ending "now" with duration `dur_us`.
void TraceComplete(obs::TraceCollector* trace, std::string name,
                   std::string category, uint64_t start_ts_us, uint32_t tid,
                   std::string args_json = "") {
  if (trace == nullptr || !trace->enabled()) return;
  obs::TraceSpan span;
  span.name = std::move(name);
  span.category = std::move(category);
  const uint64_t now = trace->NowMicros();
  span.ts_us = std::min(start_ts_us, now);
  span.dur_us = now - span.ts_us;
  span.tid = tid;
  span.args_json = std::move(args_json);
  trace->AddSpan(std::move(span));
}

}  // namespace

// Predicate waits are written as explicit while loops (not the
// std::condition_variable predicate overloads) so the guarded-field reads
// happen in a scope the thread-safety analysis sees the capability held in.
bool LivePipeline::BatchQueue::Push(std::unique_ptr<QueryBatch> batch) {
  UniqueMutexLock lock(mu_);
  while (queue_.size() >= capacity_ && !closed_) cv_push_.Wait(lock);
  if (closed_) return false;
  queue_.push_back(std::move(batch));
  cv_pop_.NotifyOne();
  return true;
}

std::unique_ptr<QueryBatch> LivePipeline::BatchQueue::Pop() {
  UniqueMutexLock lock(mu_);
  while (queue_.empty() && !closed_) cv_pop_.Wait(lock);
  if (queue_.empty()) return nullptr;  // closed and drained
  std::unique_ptr<QueryBatch> batch = std::move(queue_.front());
  queue_.pop_front();
  cv_push_.NotifyOne();
  return batch;
}

LivePipeline::BatchQueue::SpaceWait LivePipeline::BatchQueue::WaitForSpace(
    std::chrono::milliseconds timeout) {
  using Clock = std::chrono::steady_clock;
  UniqueMutexLock lock(mu_);
  if (timeout.count() <= 0) {
    while (queue_.size() >= capacity_ && !closed_) cv_push_.Wait(lock);
  } else {
    const Clock::time_point deadline = Clock::now() + timeout;
    while (queue_.size() >= capacity_ && !closed_) {
      const Clock::time_point now = Clock::now();
      if (now >= deadline) return SpaceWait::kTimeout;
      cv_push_.WaitFor(lock, deadline - now);
    }
  }
  return closed_ ? SpaceWait::kClosed : SpaceWait::kReady;
}

void LivePipeline::BatchQueue::Close() {
  MutexLock lock(mu_);
  closed_ = true;
  cv_push_.NotifyAll();
  cv_pop_.NotifyAll();
}

size_t LivePipeline::BatchQueue::size() const {
  MutexLock lock(mu_);
  return queue_.size();
}

LivePipeline::LivePipeline(KvRuntime* runtime, const PipelineConfig& config,
                           const Options& options)
    : runtime_(runtime), config_(config), options_(options) {
  DIDO_CHECK(runtime != nullptr);
  DIDO_CHECK(config.Valid()) << config.ToString();
  stages_ = config_.Stages(4);
  degraded_stages_ = PipelineConfig::CpuOnly().Stages(4);
  stage_metrics_.resize(stages_.size());
  SetupObservability();
}

LivePipeline::~LivePipeline() { Stop(); }

void LivePipeline::SetupObservability() {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  for (size_t i = 0; i < stages_.size(); ++i) {
    const std::string stage = std::to_string(i);
    const std::string device(DeviceName(stages_[i].device));
    StageMetrics& sm = stage_metrics_[i];
    sm.execute_us = reg->GetHistogram(
        obs::MetricName("dido_live_stage_execute_us",
                        {{"stage", stage}, {"device", device}}),
        "Wall microseconds a stage spent executing one batch");
    sm.queue_wait_us = reg->GetHistogram(
        obs::MetricName("dido_live_stage_queue_wait_us",
                        {{"stage", stage}, {"device", device}}),
        "Wall microseconds a batch waited to enter the stage");
    sm.batches = reg->GetCounter(
        obs::MetricName("dido_live_stage_batches_total",
                        {{"stage", stage}, {"device", device}}),
        "Batches executed by the stage");
    if (i >= 1) {
      queue_depth_gauges_.push_back(reg->GetGauge(
          obs::MetricName("dido_live_queue_depth",
                          {{"queue", std::to_string(i - 1)}}),
          "Batches queued in front of stage i+1 (watchdog-sampled)"));
    }
  }
  degraded_metrics_.execute_us =
      reg->GetHistogram("dido_live_degraded_execute_us",
                        "Wall microseconds per degraded inline batch");
  degraded_metrics_.batches = reg->GetCounter(
      "dido_live_degraded_batches_total", "Batches run inline while degraded");
  batches_retired_counter_ =
      reg->GetCounter("dido_live_batches_total", "Batches retired");
  queries_retired_counter_ =
      reg->GetCounter("dido_live_queries_total", "Queries retired");
  ingested_queries_counter_ = reg->GetCounter(
      "dido_live_ingested_queries_total", "Queries parsed at ingress");
  malformed_frames_counter_ = reg->GetCounter(
      "dido_live_malformed_frames_total", "Frames with undecodable records");
  shed_batches_counter_ = reg->GetCounter(
      "dido_live_shed_batches_total", "Batches shed by admission control");
  shed_queries_counter_ = reg->GetCounter(
      "dido_live_shed_queries_total", "Queries shed by admission control");
  set_retries_counter_ = reg->GetCounter(
      "dido_live_set_retries_total", "Transient-error SET retries");
  error_responses_counter_ = reg->GetCounter(
      "dido_live_error_responses_total", "Queries answered with kError");
  log_append_failures_counter_ = reg->GetCounter(
      "dido_live_log_append_failures_total",
      "Mutations the durability log refused (wedged log)");
  durable_timeouts_counter_ = reg->GetCounter(
      "dido_live_durable_wait_timeouts_total",
      "Batches released after their durable wait timed out");
  failovers_counter_ = reg->GetCounter(
      "dido_live_failovers_total", "Watchdog healthy -> degraded transitions");
  repromotions_counter_ = reg->GetCounter(
      "dido_live_repromotions_total", "Watchdog degraded -> healthy returns");
  degraded_gauge_ =
      reg->GetGauge("dido_live_degraded", "1 while failed over, else 0");
}

Status LivePipeline::Start(TrafficSource* source) {
  MutexLock lifecycle_lock(lifecycle_mu_);
  if (running_.exchange(true)) {
    return Status::AlreadyExists("pipeline already running");
  }
  stop_requested_.store(false);
  // Relaxed: the flag is republished before any thread that reads it is
  // spawned below (thread creation synchronizes).
  degraded_.store(false, std::memory_order_relaxed);
  {
    // Collect() may run concurrently with Start from another thread; the
    // stats reset and epoch must be published under the same lock it reads.
    MutexLock lock(stats_mu_);
    stats_ = Stats();
    responses_.clear();
    start_time_ = std::chrono::steady_clock::now();
    ring_dropped_at_start_ = options_.response_ring != nullptr
                                 ? options_.response_ring->dropped()
                                 : 0;
  }

  // One queue in front of every stage after the first, one health block
  // per stage (health_[0] — the ingress — is allocated but unmonitored).
  queues_.clear();
  health_.clear();
  for (size_t i = 0; i < stages_.size(); ++i) {
    health_.push_back(std::make_unique<StageHealth>());
    if (i >= 1) {
      queues_.push_back(std::make_unique<BatchQueue>(options_.queue_depth));
    }
  }

  // Label the trace lanes before their threads produce spans, so viewers
  // show "stage1 [GPU]" / "watchdog" instead of bare tids.
  if (options_.trace != nullptr) {
    for (size_t s = 0; s < stages_.size(); ++s) {
      std::string name = s == 0 ? "ingress+stage0" : "stage" + std::to_string(s);
      name += " [";
      name += DeviceName(stages_[s].device);
      name += "]";
      options_.trace->SetThreadName(static_cast<uint32_t>(s), std::move(name));
    }
    if (options_.watchdog && stages_.size() > 1) {
      options_.trace->SetThreadName(static_cast<uint32_t>(stages_.size()),
                                    "watchdog");
    }
  }

  threads_.emplace_back([this, source] { IngressLoop(source); });
  for (size_t s = 1; s < stages_.size(); ++s) {
    threads_.emplace_back([this, s] { StageLoop(s); });
  }
  if (options_.watchdog && stages_.size() > 1) {
    threads_.emplace_back([this] { WatchdogLoop(); });
  }
  return Status::Ok();
}

void LivePipeline::Stop() {
  MutexLock lifecycle_lock(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  queues_.clear();
  health_.clear();
  // Every batch has retired and every pin is released; drain the epoch
  // quarantine so post-run accounting (live vs. freed) balances.
  runtime_->epoch().ReclaimAll();
  running_.store(false, std::memory_order_release);
}

std::unique_ptr<QueryBatch> LivePipeline::AcquireBatch() {
  std::unique_ptr<QueryBatch> batch;
  {
    MutexLock lock(pool_mu_);
    if (!free_batches_.empty()) {
      batch = std::move(free_batches_.back());
      free_batches_.pop_back();
    }
  }
  if (batch == nullptr) {
    MutexLock lock(stats_mu_);
    stats_.batches_allocated += 1;
    return std::make_unique<QueryBatch>();
  }
  // Cleared here, on the ingress thread, rather than by the retiring
  // thread, which in the Mega-KV cut is the bottleneck stage.
  batch->Clear();
  return batch;
}

void LivePipeline::RecycleBatch(std::unique_ptr<QueryBatch> batch) {
  MutexLock lock(pool_mu_);
  free_batches_.push_back(std::move(batch));
}

void LivePipeline::ExecuteStage(size_t lane, bool degraded, QueryBatch* batch,
                                std::chrono::steady_clock::time_point start,
                                uint64_t trace_start) {
  const std::span<const StageSpec> stages =
      degraded ? std::span<const StageSpec>(degraded_stages_)
               : std::span<const StageSpec>(&stages_[lane], 1);
  const StageMetrics& metrics =
      degraded ? degraded_metrics_ : stage_metrics_[lane];
  std::atomic<uint64_t>& heartbeat = health_[lane]->heartbeat;
  obs::TraceCollector* trace = options_.trace;
  const bool tracing = trace != nullptr && trace->enabled();
  const uint32_t tid = static_cast<uint32_t>(lane);
  std::string device_args;
  uint64_t task_start = 0;
  if (tracing) {
    const std::string_view device = DeviceName(stages.front().device);
    // dido-analyze: allow(hot): span args, built once per batch and only
    // while tracing is on.
    device_args = "\"device\":" + obs::TraceJsonString(device);
    task_start = trace->NowMicros();
  }
  for (const StageSpec& stage : stages) {
    runtime_->RunStage(stage, batch, [&](TaskKind task) {
      // Relaxed: watchdog liveness signal, see StageHealth.
      // dido-analyze: allow(hot): once per task, on this stage's own word.
      heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (!tracing) return;
      // dido-analyze: allow(hot): per-task trace emission, only while
      // tracing is on.
      TraceComplete(trace, std::string(TaskKindName(task)), "task",
                    task_start, tid, device_args);
      task_start = trace->NowMicros();
    });
  }

  const double execute_us =
      MicrosBetween(start, std::chrono::steady_clock::now());
  Observe(metrics.execute_us, execute_us);
  Bump(metrics.batches);
  if (!tracing) return;
  // dido-analyze: begin-allow(hot): per-batch stage span, only while
  // tracing is on.
  TraceComplete(trace,
                degraded ? "degraded_inline" : "stage" + std::to_string(lane),
                "stage", trace_start, tid,
                device_args + ",\"queries\":" +
                    std::to_string(batch->measurements.num_queries));
  // dido-analyze: end-allow(hot)
}

void LivePipeline::RetireAndCount(QueryBatch* batch, bool degraded_inline) {
  // SD + retire: releases the batch's epoch pin and lets the epoch manager
  // advance.  Deliberately *before* the durable wait below — a group-commit
  // wait while pinned would stall reclamation for the whole sync latency.
  runtime_->RetireBatch(batch);
  bool durable_timeout = false;
  if (batch->max_lsn != 0) {
    durability::DurabilityManager* dur = runtime_->durability();
    // The write-through ack gate: responses leave only once the batch's
    // highest LSN is covered by a sync (group commit releases whole batches
    // at once).  A timed-out wait releases anyway — shedding the guarantee,
    // counted below — rather than wedging the retire path.
    if (dur != nullptr && !dur->WaitDurable(batch->max_lsn)) {
      durable_timeout = dur->mode() == durability::DurabilityMode::kWriteThrough;
    }
  }
  if (options_.response_ring != nullptr) {
    // Overflow handling (and drop counting) is the ring's: kDropNewest
    // rejects the frame, kDropOldest evicts the stalest queued response.
    for (Frame& frame : batch->responses) {
      options_.response_ring->Push(std::move(frame));
    }
  }
  const BatchMeasurements& m = batch->measurements;
  // Metrics before taking stats_mu_, to keep the stats critical section short.
  Bump(batches_retired_counter_);
  Bump(queries_retired_counter_, m.num_queries);
  Bump(set_retries_counter_, m.set_retries);
  Bump(error_responses_counter_, m.error_responses);
  Bump(log_append_failures_counter_, m.log_append_failures);
  if (durable_timeout) Bump(durable_timeouts_counter_);
  MutexLock lock(stats_mu_);
  stats_.batches += 1;
  stats_.queries += m.num_queries;
  stats_.hits += m.hits;
  stats_.misses += m.misses;
  stats_.sets += m.sets;
  stats_.degradation.set_retries += m.set_retries;
  stats_.degradation.error_responses += m.error_responses;
  stats_.degradation.log_append_failures += m.log_append_failures;
  if (durable_timeout) stats_.degradation.durable_wait_timeouts += 1;
  if (degraded_inline) stats_.degradation.degraded_batches += 1;
  if (options_.keep_responses && options_.response_ring == nullptr) {
    for (Frame& frame : batch->responses) {
      responses_.push_back(std::move(frame));
    }
  }
}

void LivePipeline::IngressLoop(TrafficSource* source) {
  using Clock = std::chrono::steady_clock;
  ScopedEpochParticipant epoch_participant(runtime_->epoch());
  obs::TraceCollector* trace = options_.trace;
  const std::chrono::milliseconds admission_timeout(
      static_cast<int64_t>(options_.admission_timeout_ms));
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::unique_ptr<QueryBatch> batch = AcquireBatch();
    batch->sequence = ++sequence_;
    batch->config = config_;
    const Clock::time_point ingest_start = Clock::now();
    const uint64_t trace_start =
        trace != nullptr && trace->enabled() ? trace->NowMicros() : 0;

    // RV: ingest frames until the batch is full, refilling the frame
    // buffers of the batch's earlier uses.
    uint64_t queries = 0;
    while (queries < options_.batch_queries) {
      queries += source->FillFrame(&batch->AppendFrame(&batch->frames), nullptr);
    }
    // PP (tolerant: malformed records skip the rest of their frame).
    const Status status = runtime_->RunPacketProcessing(batch.get());
    if (!status.ok()) {
      DIDO_LOG(Error) << "packet processing failed: " << status.ToString();
      // dido-analyze: allow(resp): this break runs before the ingestion
      // accounting below, so the batch never enters `ingested` and the
      // ingested - shed == responses arithmetic is unaffected (PP is
      // tolerant; a non-ok Status here means the runtime itself is broken,
      // and the ingress thread shuts down).
      break;
    }
    Bump(ingested_queries_counter_, batch->measurements.num_queries);
    Bump(malformed_frames_counter_, batch->measurements.malformed_frames);
    {
      // Admission accounting happens here, once per parsed batch, whether
      // the batch is later shed or retired — the two sides of the
      // exactly-once invariant.
      MutexLock lock(stats_mu_);
      stats_.degradation.ingested_queries += batch->measurements.num_queries;
      stats_.degradation.malformed_frames +=
          batch->measurements.malformed_frames;
    }

    // Relaxed: failover flag, see degraded().
    const bool degraded =
        degraded_.load(std::memory_order_relaxed) && !queues_.empty();
    if (degraded || queues_.empty()) {
      // Inline, retire inline: a single-stage pipeline's one stage, or,
      // failed over, the whole degraded CPU-only chain, bypassing the
      // stalled stage graph.
      if (degraded) batch->config = PipelineConfig::CpuOnly();
      ExecuteStage(0, degraded, batch.get(), ingest_start, trace_start);
      RetireAndCount(batch.get(), degraded);
      RecycleBatch(std::move(batch));
      continue;
    }

    // Admission control *before* any stage-0 KV task: a shed batch must
    // never have touched the index or the heap.  The ingress thread is the
    // only producer of queues_[0], so kReady means the Push below cannot
    // block.  The wait is stage 0's queue-wait component.
    const Clock::time_point admission_start = Clock::now();
    const uint64_t admission_trace_start =
        trace != nullptr && trace->enabled() ? trace->NowMicros() : 0;
    const BatchQueue::SpaceWait wait =
        queues_[0]->WaitForSpace(admission_timeout);
    if (wait == BatchQueue::SpaceWait::kClosed) break;
    if (wait == BatchQueue::SpaceWait::kTimeout) {
      Bump(shed_batches_counter_);
      Bump(shed_queries_counter_, batch->measurements.num_queries);
      TraceComplete(trace, "shed", "queue", admission_trace_start, 0);
      {
        MutexLock lock(stats_mu_);
        stats_.degradation.shed_batches += 1;
        stats_.degradation.shed_queries += batch->measurements.num_queries;
      }
      RecycleBatch(std::move(batch));
      continue;
    }
    const Clock::time_point admission_end = Clock::now();
    const double admission_wait_us =
        MicrosBetween(admission_start, admission_end);
    Observe(stage_metrics_[0].queue_wait_us, admission_wait_us);
    if (admission_wait_us >= 1.0) {
      TraceComplete(trace, "admission_wait", "queue", admission_trace_start,
                    0);
    }

    // Stage 0 execute = RV + PP + its KV tasks, exclusive of the admission
    // wait measured above.
    ExecuteStage(0, /*degraded=*/false, batch.get(),
                 ingest_start + (admission_end - admission_start),
                 trace_start);
    batch->enqueued_at = Clock::now();
    if (!queues_[0]->Push(std::move(batch))) break;
  }
  if (!queues_.empty()) queues_[0]->Close();
}

void LivePipeline::StageLoop(size_t stage_index) {
  using Clock = std::chrono::steady_clock;
  // Stage threads are epoch participants: everything the pipeline unlinks
  // (evicted, replaced, deleted objects) flows through EpochManager::
  // Retire, and each batch's candidate pointers are protected by the
  // shared pin the batch itself carries from IN.S to RetireBatch.
  ScopedEpochParticipant epoch_participant(runtime_->epoch());
  BatchQueue& in = *queues_[stage_index - 1];
  BatchQueue* out =
      stage_index < stages_.size() - 1 ? queues_[stage_index].get() : nullptr;
  const bool is_last = out == nullptr;
  StageHealth& health = *health_[stage_index];
  obs::TraceCollector* trace = options_.trace;
  const uint32_t lane = static_cast<uint32_t>(stage_index);

  for (;;) {
    // dido-analyze: allow(hot): the queue pop IS the stage-coupling
    // mechanism — its short mutex section and empty-queue wait are the
    // batch hand-off itself, amortized over batch_size queries, not
    // per-query work smuggled onto the hot path.
    std::unique_ptr<QueryBatch> batch = in.Pop();
    if (batch == nullptr) break;  // upstream closed and drained
    // Relaxed: watchdog liveness signals, see StageHealth.
    health.busy.store(true, std::memory_order_relaxed);
    // dido-analyze: allow(hot): once per batch, on this stage's own word.
    health.heartbeat.fetch_add(1, std::memory_order_relaxed);

    // Queue wait: time between the producer's hand-off and this pop.
    const Clock::time_point execute_start = Clock::now();
    const uint64_t stage_trace_start =
        trace != nullptr && trace->enabled() ? trace->NowMicros() : 0;
    const double queue_wait_us =
        batch->enqueued_at == Clock::time_point{}
            ? 0.0
            : MicrosBetween(batch->enqueued_at, execute_start);
    Observe(stage_metrics_[stage_index].queue_wait_us, queue_wait_us);
    if (trace != nullptr && trace->enabled()) {
      obs::TraceSpan span;
      span.name = "queue_wait";
      span.category = "queue";
      span.dur_us = static_cast<uint64_t>(queue_wait_us);
      span.ts_us = stage_trace_start > span.dur_us
                       ? stage_trace_start - span.dur_us
                       : 0;
      span.tid = lane;
      // dido-analyze: allow(hot): tracing is opt-in (trace->enabled()
      // guard above) and per-batch; runs with zero cost when disabled.
      trace->AddSpan(std::move(span));
    }

    FaultHit hit;
    if (DIDO_FAULT_POINT_HIT("live.stage.stall", &hit)) {
      // Injected stage stall: the thread sleeps with busy set and the
      // heartbeat frozen — exactly what a wedged device queue looks like
      // to the watchdog.
      // dido-analyze: allow(hot): fault injection only — the sleep exists
      // to simulate a wedged device and is compiled behind a fault point
      // that production runs never arm.
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int64_t>(hit.param)));
    }

    ExecuteStage(stage_index, /*degraded=*/false, batch.get(), execute_start,
                 stage_trace_start);

    if (!is_last) {
      batch->enqueued_at = Clock::now();
      // dido-analyze: allow(hot): downstream hand-off — the queue push's
      // mutex section and full-queue backpressure wait are the pipeline's
      // coupling mechanism, once per batch (see the Pop note above).
      const bool pushed = out->Push(std::move(batch));
      // Relaxed: watchdog liveness signal, see StageHealth.
      health.busy.store(false, std::memory_order_relaxed);
      if (!pushed) break;
      continue;
    }

    // dido-analyze: allow(hot): end-of-pipeline bookkeeping — batch
    // retirement (epoch hand-off of unlinked objects) and response
    // accounting run once per batch on the last stage; the per-query work
    // finished in the kernels above.
    RetireAndCount(batch.get(), /*degraded_inline=*/false);
    // dido-analyze: allow(hot): the free-list hand-off, one short mutex
    // section per batch (see the Pop note above).
    RecycleBatch(std::move(batch));
    // Relaxed: watchdog liveness signal, see StageHealth.
    health.busy.store(false, std::memory_order_relaxed);
  }
  // dido-analyze: allow(hot): shutdown path — closing the downstream
  // queue happens once, after the batch loop exits.
  if (out != nullptr) out->Close();
}

void LivePipeline::WatchdogLoop() {
  using Clock = std::chrono::steady_clock;
  const auto interval =
      std::chrono::milliseconds(static_cast<int64_t>(
          options_.watchdog_interval_ms > 0 ? options_.watchdog_interval_ms
                                            : 1));
  const auto stall_threshold =
      std::chrono::milliseconds(static_cast<int64_t>(options_.stall_threshold_ms));
  const auto dwell =
      std::chrono::milliseconds(static_cast<int64_t>(options_.repromote_dwell_ms));

  std::vector<uint64_t> last_beat(stages_.size(), 0);
  std::vector<Clock::time_point> last_change(stages_.size(), Clock::now());
  Clock::time_point healthy_since = Clock::now();
  bool was_quiet = false;
  obs::TraceCollector* trace = options_.trace;
  // Watchdog events get their own trace lane above the stage lanes.
  const uint32_t watchdog_lane = static_cast<uint32_t>(stages_.size());

  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    const Clock::time_point now = Clock::now();

    bool any_stalled = false;
    bool all_quiet = true;
    for (size_t s = 1; s < stages_.size(); ++s) {
      StageHealth& health = *health_[s];
      // Relaxed loads: watchdog liveness signals, see StageHealth.
      const uint64_t beat = health.heartbeat.load(std::memory_order_relaxed);
      const size_t depth = queues_[s - 1]->size();
      if (s - 1 < queue_depth_gauges_.size()) {
        Publish(queue_depth_gauges_[s - 1], static_cast<double>(depth));
      }
      const bool busy =
          health.busy.load(std::memory_order_relaxed) || depth > 0;
      if (busy) all_quiet = false;
      if (beat != last_beat[s]) {
        last_beat[s] = beat;
        last_change[s] = now;
        continue;
      }
      if (!busy) {
        // Idle with an empty input queue: not progressing because there is
        // nothing to do.
        last_change[s] = now;
        continue;
      }
      if (now - last_change[s] >= stall_threshold) any_stalled = true;
    }

    // Relaxed flag either way; the counters below are mutex-protected.
    if (any_stalled && !degraded_.load(std::memory_order_relaxed)) {
      degraded_.store(true, std::memory_order_relaxed);
      Bump(failovers_counter_);
      Publish(degraded_gauge_, 1.0);
      TraceComplete(trace, "failover", "watchdog",
                    trace != nullptr ? trace->NowMicros() : 0, watchdog_lane);
      MutexLock lock(stats_mu_);
      stats_.degradation.failovers += 1;
      continue;
    }

    // Relaxed: failover flag, see degraded().
    if (degraded_.load(std::memory_order_relaxed)) {
      // Re-promote once the stage graph has been drained and idle for the
      // dwell window (the stall was transient and everything queued behind
      // it has flushed).
      if (!all_quiet) {
        was_quiet = false;
        continue;
      }
      if (!was_quiet) {
        was_quiet = true;
        healthy_since = now;
        continue;
      }
      if (now - healthy_since >= dwell) {
        // Relaxed: failover flag (see degraded()) and liveness heartbeats
        // (see StageHealth) — neither publishes data.
        degraded_.store(false, std::memory_order_relaxed);
        // Restart stall tracking from a clean slate so the pre-failover
        // timestamps cannot instantly re-trigger.
        for (size_t s = 1; s < stages_.size(); ++s) {
          last_beat[s] = health_[s]->heartbeat.load(std::memory_order_relaxed);
          last_change[s] = now;
        }
        was_quiet = false;
        Bump(repromotions_counter_);
        Publish(degraded_gauge_, 0.0);
        TraceComplete(trace, "repromote", "watchdog",
                      trace != nullptr ? trace->NowMicros() : 0,
                      watchdog_lane);
        MutexLock lock(stats_mu_);
        stats_.degradation.repromotions += 1;
      }
    }
  }
}

LivePipeline::Stats LivePipeline::Collect() const {
  MutexLock lock(stats_mu_);
  Stats stats = stats_;
  if (options_.response_ring != nullptr) {
    stats.degradation.responses_dropped =
        options_.response_ring->dropped() - ring_dropped_at_start_;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  stats.wall_seconds = seconds;
  stats.mops = seconds > 0.0
                   ? static_cast<double>(stats.queries) / (seconds * 1e6)
                   : 0.0;
  return stats;
}

std::vector<Frame> LivePipeline::TakeResponses() {
  MutexLock lock(stats_mu_);
  std::vector<Frame> out = std::move(responses_);
  responses_.clear();
  return out;
}

}  // namespace dido
