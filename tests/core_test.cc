// Integration tests for DidoStore, the Mega-KV baselines and the experiment
// harness.

#include <string>

#include <gtest/gtest.h>

#include "core/system_runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dido {
namespace {

DidoOptions SmallStore() {
  DidoOptions options;
  options.arena_bytes = 8 << 20;
  return options;
}

TEST(DidoStoreTest, DirectApiRoundTrip) {
  DidoStore store(SmallStore());
  EXPECT_TRUE(store.Put("hello", "world").ok());
  EXPECT_EQ(store.Get("hello").value(), "world");
  EXPECT_TRUE(store.Put("hello", "again").ok());
  EXPECT_EQ(store.Get("hello").value(), "again");
  EXPECT_TRUE(store.Delete("hello").ok());
  EXPECT_EQ(store.Get("hello").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete("hello").code(), StatusCode::kNotFound);
}

TEST(DidoStoreTest, ManyKeysSurviveChurn) {
  DidoStore store(SmallStore());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store.Put("key" + std::to_string(i),
                          "value" + std::to_string(i))
                    .ok());
  }
  for (int i = 0; i < 5000; i += 7) {
    ASSERT_TRUE(store.Delete("key" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 5000; ++i) {
    Result<std::string> value = store.Get("key" + std::to_string(i));
    if (i % 7 == 0) {
      EXPECT_FALSE(value.ok());
    } else {
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(*value, "value" + std::to_string(i));
    }
  }
}

TEST(DidoStoreTest, PreloadAndServeBatch) {
  DidoStore store(SmallStore());
  const uint64_t objects = store.Preload(DatasetK16(), 10000);
  ASSERT_EQ(objects, 10000u);
  WorkloadSession session(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  const BatchResult result = store.ServeBatch(*session.source, 2000);
  EXPECT_GE(result.batch_size, 2000u);
  EXPECT_EQ(result.measurements.misses, 0u);
  EXPECT_GT(result.throughput_mops, 0.0);
}

TEST(DidoStoreTest, AdaptationReplansAndImproves) {
  DidoStore store(SmallStore());
  const uint64_t objects = store.Preload(DatasetK16(), 10000);
  WorkloadSession session(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  const PipelineConfig initial = store.current_config();
  const BatchResult before = store.ServeBatch(*session.source, 2000);
  for (int i = 0; i < 6; ++i) store.ServeBatch(*session.source, 2000);
  EXPECT_GT(store.replan_count(), 0u);
  EXPECT_TRUE(store.current_config().Valid());
  EXPECT_FALSE(store.current_config() == initial);
  const BatchResult after = store.ServeBatch(*session.source, 2000);
  EXPECT_GT(after.throughput_mops, before.throughput_mops);
}

TEST(DidoStoreTest, ClosedLoopRecoversFromDeviceDrift) {
  // Declared before the store: ~KvRuntime unregisters its collectors.
  obs::MetricsRegistry metrics;
  obs::TraceCollector trace;
  DidoOptions options = SmallStore();
  options.recalibrate = true;
  DidoStore store(options);
  store.AttachObservability(&metrics, &trace);
  const uint64_t objects = store.Preload(DatasetK16(), 10000);
  WorkloadSession session(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  ASSERT_NE(store.calibrator(), nullptr);
  ASSERT_NE(store.drift_tracker(), nullptr);

  for (int i = 0; i < 20; ++i) store.ServeBatch(*session.source, 2000);
  // The "hardware" drifts: every GPU task now runs 1.6x slower than the
  // cost model's calibration believes.
  store.executor().SetDeviceDrift(Device::kGpu, 1.6);
  for (int i = 0; i < 40; ++i) store.ServeBatch(*session.source, 2000);
  const double error_open = store.drift_tracker()->RollingTmaxError();
  const uint64_t replans_mid = store.replan_count();
  for (int i = 0; i < 260; ++i) store.ServeBatch(*session.source, 2000);

  // The calibrator committed at least one generation, the fitted GPU scale
  // moved toward the injected drift, and the rolling prediction error
  // shrank from the open-loop level.
  const CalibrationOverlay overlay = store.calibrator()->overlay();
  EXPECT_GT(overlay.generation, 0u);
  EXPECT_GT(overlay.gpu_scale, 1.2);
  EXPECT_LT(store.drift_tracker()->RollingTmaxError(), error_open);
  // A >10% committed shift forces a re-plan even with a pinned workload.
  EXPECT_GT(store.replan_count(), replans_mid);
  // Residual samples are retained device-labeled, and the calibration state
  // is visible in the exposition plus the trace.
  EXPECT_FALSE(store.drift_tracker()->ResidualsSnapshot().empty());
  const std::string text = metrics.RenderPrometheus();
  EXPECT_TRUE(text.find("dido_recal_generation") != std::string::npos);
  EXPECT_TRUE(text.find("dido_recal_scale{device=\"GPU\"}") !=
              std::string::npos);
  bool saw_recal_span = false;
  for (const obs::TraceSpan& span : trace.Snapshot()) {
    if (span.category == "calibration") saw_recal_span = true;
  }
  EXPECT_TRUE(saw_recal_span);
}

TEST(DidoStoreTest, RecalibrationOffKeepsModelUncorrected) {
  obs::MetricsRegistry metrics;
  DidoOptions options = SmallStore();
  options.recalibrate = false;
  DidoStore store(options);
  store.AttachObservability(&metrics);
  const uint64_t objects = store.Preload(DatasetK16(), 10000);
  WorkloadSession session(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  EXPECT_EQ(store.calibrator(), nullptr);
  store.executor().SetDeviceDrift(Device::kGpu, 1.6);
  for (int i = 0; i < 80; ++i) store.ServeBatch(*session.source, 2000);
  EXPECT_TRUE(store.cost_model().calibration().identity());
}

TEST(DidoStoreTest, NonAdaptiveKeepsInitialConfig) {
  DidoOptions options = SmallStore();
  options.adaptive = false;
  DidoStore store(options);
  const uint64_t objects = store.Preload(DatasetK16(), 5000);
  WorkloadSession session(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  const PipelineConfig initial = store.current_config();
  for (int i = 0; i < 4; ++i) store.ServeBatch(*session.source, 1000);
  EXPECT_TRUE(store.current_config() == initial);
  EXPECT_EQ(store.replan_count(), 0u);
}

TEST(DidoStoreTest, ReplanPicksReadHeavyPipeline) {
  DidoStore store(SmallStore());
  const uint64_t objects = store.Preload(DatasetK16(), 10000);
  WorkloadSession session(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  const PipelineConfig& config = store.Replan(*session.source);
  // Paper V-C: for 95% GET, Insert/Delete move to the CPU and the GPU takes
  // (at least) IN.S.
  EXPECT_EQ(config.DeviceFor(TaskKind::kInInsert), Device::kCpu);
  EXPECT_EQ(config.DeviceFor(TaskKind::kInDelete), Device::kCpu);
  EXPECT_EQ(config.DeviceFor(TaskKind::kInSearch), Device::kGpu);
}

TEST(DidoStoreTest, AdaptsWhenWorkloadSwitches) {
  // The Fig. 20 mechanism: switching the offered workload re-triggers the
  // profiler and produces a (possibly) different plan.
  DidoStore store(SmallStore());
  const uint64_t objects = store.Preload(DatasetK16(), 10000);
  WorkloadSession read_heavy(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  WorkloadSession write_heavy(
      MakeWorkload(DatasetK16(), 50, KeyDistribution::kUniform), objects, 2);
  for (int i = 0; i < 6; ++i) store.ServeBatch(*read_heavy.source, 2000);
  const uint64_t replans_before = store.replan_count();
  for (int i = 0; i < 8; ++i) store.ServeBatch(*write_heavy.source, 2000);
  EXPECT_GT(store.replan_count(), replans_before);
}

TEST(MegaKvStoreTest, ServesTraffic) {
  DidoStore store(MegaKvCoupledOptions(SmallStore()));
  const uint64_t objects = store.Preload(DatasetK16(), 10000);
  WorkloadSession session(
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf), objects, 1);
  const BatchResult result = store.ServeBatch(*session.source, 2000);
  EXPECT_EQ(result.measurements.misses, 0u);
  EXPECT_EQ(result.stolen_queries, 0u);  // no work stealing in the baseline
  EXPECT_EQ(store.current_config().DeviceFor(TaskKind::kInSearch),
            Device::kGpu);
}

TEST(SystemRunnerTest, PreloadTargetScalesWithObjectSize) {
  const uint64_t small = PreloadTarget(DatasetK8(), 16 << 20, 0.8);
  const uint64_t large = PreloadTarget(DatasetK128(), 16 << 20, 0.8);
  EXPECT_GT(small, 10 * large);
}

TEST(SystemRunnerTest, ExperimentSpecTogglesNetworkCost) {
  ExperimentOptions with_network;
  ExperimentOptions without = with_network;
  without.network_io = false;
  EXPECT_GT(ExperimentSpec(with_network).rv_us_per_frame,
            ExperimentSpec(without).rv_us_per_frame);
}

TEST(SystemRunnerTest, DidoBeatsMegaKvOnReadHeavyWorkload) {
  // The paper's headline: DIDO outperforms Mega-KV (Coupled) on every
  // workload (Fig. 11); check one representative point end to end.
  ExperimentOptions experiment;
  experiment.arena_bytes = 16 << 20;
  experiment.measure_batches = 3;
  const WorkloadSpec workload =
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf);
  const SystemMeasurement megakv = MeasureMegaKvCoupled(workload, experiment);
  const SystemMeasurement dido = MeasureDido(workload, experiment);
  EXPECT_GT(dido.throughput_mops, megakv.throughput_mops * 1.2);
  EXPECT_GT(dido.gpu_utilization, megakv.gpu_utilization);
}

TEST(SystemRunnerTest, FixedConfigPinsThePipeline) {
  ExperimentOptions experiment;
  experiment.arena_bytes = 8 << 20;
  experiment.measure_batches = 2;
  PipelineConfig config = PipelineConfig::MegaKv();
  config.work_stealing = true;
  const WorkloadSpec workload =
      MakeWorkload(DatasetK16(), 95, KeyDistribution::kZipf);
  const SystemMeasurement m =
      MeasureFixedConfig(workload, config, experiment);
  EXPECT_TRUE(m.config == config);
  EXPECT_GT(m.throughput_mops, 0.0);
}

TEST(MegaKvDiscreteTest, PaperTableCoversTwelveWorkloads) {
  int found = 0;
  for (const WorkloadSpec& spec : StandardWorkloadMatrix()) {
    if (MegaKvDiscretePaperMops(spec.Name()).has_value()) ++found;
  }
  EXPECT_EQ(found, 12);
  EXPECT_FALSE(MegaKvDiscretePaperMops("K32-G50-U").has_value());
  // Small keys are faster than large ones in the reported numbers.
  EXPECT_GT(*MegaKvDiscretePaperMops("K8-G100-U"),
            *MegaKvDiscretePaperMops("K128-G100-U"));
}

TEST(MegaKvDiscreteTest, AnalyticEstimateBeatsCoupled) {
  // The discrete testbed (16 Xeon cores + 2 discrete GPUs) must be
  // predicted much faster than anything the APU can do — the paper reports
  // 5.8x-23.6x (Section V-E).
  const WorkloadSpec workload =
      MakeWorkload(DatasetK8(), 100, KeyDistribution::kUniform);
  const double discrete = EstimateMegaKvDiscreteMops(workload, 1 << 20);
  EXPECT_GT(discrete, 40.0);
}

TEST(MakeRuntimeOptionsTest, IndexSizedFromArena) {
  DidoOptions options;
  options.arena_bytes = 8 << 20;
  options.expected_key_bytes = 8;
  options.expected_value_bytes = 8;
  const KvRuntime::Options rt = MakeRuntimeOptions(options);
  // 8 MB / 64 B chunks = 128k objects; at load 0.5 -> 256k slots -> 32k
  // buckets of 8.
  EXPECT_GE(rt.index.num_buckets, 32768u);
  options.index_buckets = 1024;
  EXPECT_EQ(MakeRuntimeOptions(options).index.num_buckets, 1024u);
}

}  // namespace
}  // namespace dido
