// Tests for the wall-clock (real-thread) pipeline execution mode.

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "live/live_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dido {
namespace {

struct LiveFixture {
  std::unique_ptr<KvRuntime> runtime;
  std::unique_ptr<WorkloadGenerator> generator;
  std::unique_ptr<TrafficSource> source;
  uint64_t objects = 0;

  explicit LiveFixture(const WorkloadSpec& spec) {
    KvRuntime::Options rt;
    rt.slab.arena_bytes = 16 << 20;
    rt.index.num_buckets = 1 << 14;
    runtime = std::make_unique<KvRuntime>(rt);
    objects = runtime->Preload(spec.dataset, 20000);
    generator = std::make_unique<WorkloadGenerator>(spec, objects, 3);
    source = std::make_unique<TrafficSource>(generator.get());
  }
};

void RunFor(LivePipeline& pipeline, TrafficSource* source, int millis) {
  ASSERT_TRUE(pipeline.Start(source).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  pipeline.Stop();
}

TEST(LivePipelineTest, ServesReadTrafficWithoutMisses) {
  LiveFixture f(MakeWorkload(DatasetK16(), 100, KeyDistribution::kZipf));
  LivePipeline::Options options;
  LivePipeline pipeline(f.runtime.get(), PipelineConfig::MegaKv(), options);
  RunFor(pipeline, f.source.get(), 200);
  const LivePipeline::Stats stats = pipeline.Collect();
  EXPECT_GT(stats.batches, 2u);
  EXPECT_GT(stats.queries, 4000u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, stats.queries);
  EXPECT_GT(stats.mops, 0.0);
}

TEST(LivePipelineTest, MixedTrafficKeepsStoreIntact) {
  LiveFixture f(MakeWorkload(DatasetK16(), 50, KeyDistribution::kZipf));
  LivePipeline::Options options;
  PipelineConfig config;  // DIDO-style: [IN.S,KC,RD] on the GPU worker
  config.gpu_begin = 3;
  config.gpu_end = 6;
  config.insert_device = Device::kCpu;
  config.delete_device = Device::kCpu;
  LivePipeline pipeline(f.runtime.get(), config, options);
  RunFor(pipeline, f.source.get(), 300);
  const LivePipeline::Stats stats = pipeline.Collect();
  EXPECT_GT(stats.sets, 1000u);
  // In-place index replacement: concurrent batches may only miss through
  // reclamation races, which the epoch pins each batch carries prevent.
  EXPECT_EQ(stats.misses, 0u);
  // Memory must be steady after tens of thousands of overwrites.
  EXPECT_EQ(f.runtime->live_objects(), f.objects);
  const MemoryManager::Counters& counters = f.runtime->memory().counters();
  EXPECT_EQ(counters.allocations - counters.frees, f.objects);
}

TEST(LivePipelineTest, ResponsesAreWellFormed) {
  LiveFixture f(MakeWorkload(DatasetK8(), 95, KeyDistribution::kUniform));
  LivePipeline::Options options;
  options.batch_queries = 512;
  options.keep_responses = true;
  LivePipeline pipeline(f.runtime.get(), PipelineConfig::MegaKv(), options);
  RunFor(pipeline, f.source.get(), 100);
  const LivePipeline::Stats stats = pipeline.Collect();
  std::vector<Frame> responses = pipeline.TakeResponses();
  ASSERT_FALSE(responses.empty());
  uint64_t decoded = 0;
  for (const Frame& frame : responses) {
    size_t offset = 0;
    while (offset < frame.payload.size()) {
      ResponseView view;
      ASSERT_TRUE(DecodeResponse(frame.payload.data(), frame.payload.size(),
                                 &offset, &view)
                      .ok());
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, stats.queries);
}

// Retired batches are recycled, so a long run reuses a handful of
// QueryBatch objects whose frame buffers held other batches' requests and
// responses.  Nothing of an earlier use may leak into a later one: every
// batch's response frames must decode, in order, to answers to exactly its
// own requests, with the frame count WR's packing predicts for that batch.
TEST(LivePipelineTest, RecycledBatchesAnswerTheRequestStream) {
  const WorkloadSpec spec =
      MakeWorkload(DatasetK16(), 50, KeyDistribution::kZipf);
  LiveFixture f(spec);
  LivePipeline::Options options;
  options.batch_queries = 256;
  options.keep_responses = true;
  options.watchdog = false;            // no failover reordering batches
  options.admission_timeout_ms = 0;    // no shedding
  const PipelineConfig config = PipelineConfig::MegaKv();
  const uint64_t stages = config.Stages(4).size();
  const uint64_t target = 3 * options.queue_depth * stages;
  LivePipeline pipeline(f.runtime.get(), config, options);
  ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (pipeline.Collect().batches < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pipeline.Stop();
  const LivePipeline::Stats stats = pipeline.Collect();
  ASSERT_GE(stats.batches, target);
  EXPECT_LE(stats.batches_allocated, stages * (options.queue_depth + 1));
  const std::vector<Frame> responses = pipeline.TakeResponses();

  // Replay the request stream the pipeline ingested, batch by batch.
  WorkloadGenerator mirror_generator(spec, f.objects, 3);
  TrafficSource mirror(&mirror_generator);
  const uint32_t key_size = spec.dataset.key_size;
  const uint32_t value_size = spec.dataset.value_size;
  std::vector<Query> expected;
  std::vector<size_t> frames_per_batch;
  for (uint64_t b = 0; b < stats.batches; ++b) {
    std::vector<Query> batch;
    while (batch.size() < options.batch_queries) {
      Frame frame;
      mirror.FillFrame(&frame, &batch);
    }
    size_t frames = 0;
    size_t fill = kMaxFramePayload;  // forces a frame for the first record
    for (const Query& q : batch) {
      const size_t bytes = kRecordHeaderBytes + key_size +
                           (q.op == QueryOp::kGet ? value_size : 0);
      if (fill + bytes > kMaxFramePayload) {
        ++frames;
        fill = 0;
      }
      fill += bytes;
    }
    frames_per_batch.push_back(frames);
    expected.insert(expected.end(), batch.begin(), batch.end());
  }
  EXPECT_GT(std::set<size_t>(frames_per_batch.begin(), frames_per_batch.end())
                .size(),
            1u);
  size_t expected_frames = 0;
  for (size_t n : frames_per_batch) expected_frames += n;
  ASSERT_EQ(responses.size(), expected_frames);
  ASSERT_EQ(expected.size(), stats.queries);

  std::string key(key_size, '\0');
  size_t next = 0;
  for (const Frame& frame : responses) {
    size_t offset = 0;
    while (offset < frame.payload.size()) {
      ResponseView view;
      ASSERT_TRUE(DecodeResponse(frame.payload.data(), frame.payload.size(),
                                 &offset, &view)
                      .ok());
      ASSERT_LT(next, expected.size());
      const Query& q = expected[next++];
      MaterializeKey(q.key_index, key_size,
                     reinterpret_cast<uint8_t*>(key.data()));
      ASSERT_EQ(view.op, q.op) << "record " << next - 1;
      ASSERT_EQ(view.key, key) << "record " << next - 1;
      if (q.op == QueryOp::kGet) {
        ASSERT_EQ(view.status, ResponseStatus::kOk);
        ASSERT_EQ(view.value.size(), value_size);
      } else {
        ASSERT_EQ(view.status, ResponseStatus::kStored);
      }
    }
  }
  EXPECT_EQ(next, expected.size());
}

TEST(LivePipelineTest, PureCpuSingleStageWorks) {
  LiveFixture f(MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf));
  PipelineConfig config;
  config.gpu_begin = 4;
  config.gpu_end = 4;
  config.insert_device = Device::kCpu;
  config.delete_device = Device::kCpu;
  LivePipeline::Options options;
  LivePipeline pipeline(f.runtime.get(), config, options);
  RunFor(pipeline, f.source.get(), 100);
  EXPECT_GT(pipeline.Collect().queries, 1000u);
  EXPECT_EQ(pipeline.Collect().misses, 0u);
}

// Serves a few hundred traced batches and checks the span layout the
// in-situ task metrics are read from: on each lane, the task spans one
// thread emits between two stage spans are exactly the range tasks of the
// lane's StageSpec, in order, and lie inside the stage span that follows
// them; admission_wait appears only on lane 0, inside stage0.
void ExpectStageSpansHoldTheirTasks(const PipelineConfig& config) {
  LiveFixture f(MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf));
  obs::TraceCollector trace(1 << 20);
  LivePipeline::Options options;
  options.batch_queries = 256;
  options.watchdog = false;          // no failover to the degraded chain
  options.admission_timeout_ms = 0;  // no shedding
  options.trace = &trace;
  LivePipeline pipeline(f.runtime.get(), config, options);
  ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (pipeline.Collect().batches < 300 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pipeline.Stop();
  const uint64_t batches = pipeline.Collect().batches;
  ASSERT_GE(batches, 300u);
  ASSERT_EQ(trace.dropped(), 0u);

  const std::vector<StageSpec> stages = config.Stages(4);
  std::vector<std::vector<std::string>> expected(stages.size());
  for (size_t lane = 0; lane < stages.size(); ++lane) {
    for (TaskKind task : stages[lane].tasks) {
      if (IsRangeTask(task)) {
        expected[lane].push_back(std::string(TaskKindName(task)));
      }
    }
  }
  // Spans are recorded in emission order, and each lane has one thread.
  std::vector<std::vector<obs::TraceSpan>> pending(stages.size());
  std::vector<uint64_t> stage_spans(stages.size(), 0);
  for (const obs::TraceSpan& span : trace.Snapshot()) {
    if (span.name == "admission_wait") {
      EXPECT_EQ(span.tid, 0u);
    }
    if (span.category != "task" && span.category != "stage" &&
        span.name != "admission_wait") {
      continue;
    }
    ASSERT_LT(span.tid, stages.size()) << span.name;
    std::vector<obs::TraceSpan>& children = pending[span.tid];
    if (span.category != "stage") {
      children.push_back(span);
      continue;
    }
    EXPECT_EQ(span.name, "stage" + std::to_string(span.tid));
    std::vector<std::string> tasks;
    for (const obs::TraceSpan& child : children) {
      EXPECT_GE(child.ts_us, span.ts_us) << child.name;
      EXPECT_LE(child.ts_us + child.dur_us, span.ts_us + span.dur_us)
          << child.name;
      if (child.category == "task") tasks.push_back(child.name);
    }
    EXPECT_EQ(tasks, expected[span.tid]) << span.name;
    children.clear();
    stage_spans[span.tid] += 1;
  }
  for (size_t lane = 0; lane < stages.size(); ++lane) {
    EXPECT_TRUE(pending[lane].empty()) << "lane " << lane;
    EXPECT_EQ(stage_spans[lane], batches) << "lane " << lane;
  }
}

TEST(LivePipelineTest, CpuOnlyTraceNestsTasksInTheirStage) {
  ExpectStageSpansHoldTheirTasks(PipelineConfig::CpuOnly());
}

TEST(LivePipelineTest, MegaKvTraceNestsTasksInTheirStage) {
  ExpectStageSpansHoldTheirTasks(PipelineConfig::MegaKv());
}

// The pipeline keeps two books: the dido_live_* counters bumped outside
// stats_mu_ and the Stats that Collect() reports.  After Stop they must
// agree exactly.
TEST(LivePipelineTest, MetricsAgreeWithCollectedStats) {
  LiveFixture f(MakeWorkload(DatasetK16(), 50, KeyDistribution::kZipf));
  obs::MetricsRegistry registry;
  LivePipeline::Options options;
  options.metrics = &registry;
  const PipelineConfig config = PipelineConfig::MegaKv();
  LivePipeline pipeline(f.runtime.get(), config, options);
  RunFor(pipeline, f.source.get(), 200);
  const LivePipeline::Stats stats = pipeline.Collect();
  ASSERT_GT(stats.batches, 0u);

  // Every name below must already be registered: GetCounter would create
  // a missing one at zero and the comparison would prove nothing.
  const size_t registered = registry.size();
  auto total = [&](const std::string& name) {
    return registry.GetCounter(name)->Value();
  };
  const DegradationStats& d = stats.degradation;
  EXPECT_EQ(total("dido_live_batches_total"), stats.batches);
  EXPECT_EQ(total("dido_live_queries_total"), stats.queries);
  EXPECT_EQ(total("dido_live_ingested_queries_total"), d.ingested_queries);
  EXPECT_EQ(total("dido_live_shed_batches_total"), d.shed_batches);
  EXPECT_EQ(total("dido_live_shed_queries_total"), d.shed_queries);
  EXPECT_EQ(total("dido_live_set_retries_total"), d.set_retries);
  EXPECT_EQ(total("dido_live_error_responses_total"), d.error_responses);

  const std::vector<StageSpec> stages = config.Stages(4);
  for (size_t i = 0; i < stages.size(); ++i) {
    const std::string stage = std::to_string(i);
    const std::string device(DeviceName(stages[i].device));
    const uint64_t batches =
        total(obs::MetricName("dido_live_stage_batches_total",
                              {{"stage", stage}, {"device", device}}));
    const uint64_t executions =
        registry
            .GetHistogram(obs::MetricName("dido_live_stage_execute_us",
                                          {{"stage", stage},
                                           {"device", device}}))
            ->TakeSnapshot()
            .count;
    EXPECT_EQ(batches, executions) << "stage " << i;
    EXPECT_GT(batches, 0u) << "stage " << i;
  }
  EXPECT_EQ(registry.size(), registered);
}

TEST(LivePipelineTest, DoubleStartFailsAndRestartWorks) {
  LiveFixture f(MakeWorkload(DatasetK16(), 100, KeyDistribution::kUniform));
  LivePipeline pipeline(f.runtime.get(), PipelineConfig::MegaKv(),
                        LivePipeline::Options());
  ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
  EXPECT_EQ(pipeline.Start(f.source.get()).code(),
            StatusCode::kAlreadyExists);
  pipeline.Stop();
  EXPECT_FALSE(pipeline.running());
  ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pipeline.Stop();
  EXPECT_GT(pipeline.Collect().batches, 0u);
}

TEST(LivePipelineTest, StopIsIdempotent) {
  LiveFixture f(MakeWorkload(DatasetK16(), 100, KeyDistribution::kUniform));
  LivePipeline pipeline(f.runtime.get(), PipelineConfig::MegaKv(),
                        LivePipeline::Options());
  pipeline.Stop();  // never started: no-op
  ASSERT_TRUE(pipeline.Start(f.source.get()).ok());
  pipeline.Stop();
  pipeline.Stop();
  SUCCEED();
}

}  // namespace
}  // namespace dido
