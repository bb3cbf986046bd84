// Tests for the observability layer (src/obs/): metrics registry, trace
// collector, and cost-model drift telemetry.  Carries the CTest label
// "obs"; CI additionally runs this suite under ThreadSanitizer (the
// counter/histogram tests hammer one instrument from many threads).

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/recalibrate.h"
#include "obs/trace.h"
#include "sim/timing_model.h"

namespace dido {
namespace obs {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ------------------------------------------------------------- counter --

TEST(ObsCounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(ObsCounterTest, ConcurrentAddsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

// --------------------------------------------------------------- gauge --

TEST(ObsGaugeTest, SetStoresLastValue) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.25);
  EXPECT_EQ(gauge.Value(), 3.25);
  gauge.Set(-1e9);
  EXPECT_EQ(gauge.Value(), -1e9);
  gauge.Set(0.0);
  EXPECT_EQ(gauge.Value(), 0.0);
}

// ----------------------------------------------------------- histogram --

TEST(ObsHistogramTest, BucketEdgesAreMonotoneAndSelfConsistent) {
  double previous = AtomicHistogram::kMinBound;
  for (int b = 0; b < AtomicHistogram::kNumBuckets; ++b) {
    const double edge = AtomicHistogram::UpperBound(b);
    EXPECT_GT(edge, previous) << "bucket " << b;
    previous = edge;
  }
  // Values at or below the minimum bound land in bucket 0; absurdly large
  // values clamp to the last bucket instead of indexing out of range.
  EXPECT_EQ(AtomicHistogram::BucketFor(0.0), 0);
  EXPECT_EQ(AtomicHistogram::BucketFor(-5.0), 0);
  EXPECT_EQ(AtomicHistogram::BucketFor(AtomicHistogram::kMinBound), 0);
  EXPECT_EQ(AtomicHistogram::BucketFor(1e30),
            AtomicHistogram::kNumBuckets - 1);
  // A value strictly inside a bucket maps below that bucket's upper edge.
  const int bucket = AtomicHistogram::BucketFor(100.0);
  EXPECT_GE(bucket, 0);
  EXPECT_LT(bucket, AtomicHistogram::kNumBuckets);
  EXPECT_LE(100.0, AtomicHistogram::UpperBound(bucket) * 1.0000001);
}

TEST(ObsHistogramTest, SnapshotCountSumMeanPercentile) {
  AtomicHistogram histogram;
  for (int i = 0; i < 1000; ++i) histogram.Record(10.0);
  const AtomicHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 10000.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 10.0);
  // Everything sits in one bucket, so any quantile resolves inside the
  // bucket that holds 10.0.
  const int bucket = AtomicHistogram::BucketFor(10.0);
  const double lower =
      bucket == 0 ? 0.0 : AtomicHistogram::UpperBound(bucket - 1);
  const double upper = AtomicHistogram::UpperBound(bucket);
  for (double q : {0.01, 0.5, 0.99}) {
    const double value = snapshot.Percentile(q);
    EXPECT_GE(value, lower) << "q=" << q;
    EXPECT_LE(value, upper) << "q=" << q;
  }
}

TEST(ObsHistogramTest, PercentileOrdersAcrossBuckets) {
  AtomicHistogram histogram;
  // 90% fast ops at ~2us, 10% slow ops at ~800us: p50 must sit decades
  // below p99.
  for (int i = 0; i < 900; ++i) histogram.Record(2.0);
  for (int i = 0; i < 100; ++i) histogram.Record(800.0);
  const AtomicHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  const double p50 = snapshot.Percentile(0.50);
  const double p99 = snapshot.Percentile(0.99);
  EXPECT_LT(p50, 10.0);
  EXPECT_GT(p99, 100.0);
  EXPECT_LT(p50, p99);
}

TEST(ObsHistogramTest, ConcurrentRecordsKeepExactCount) {
  AtomicHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        histogram.Record(static_cast<double>((t * 37 + i) % 500) + 1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const AtomicHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<uint64_t>(kThreads) * kRecordsPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snapshot.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snapshot.count);
  EXPECT_TRUE(std::isfinite(snapshot.sum));
  EXPECT_GT(snapshot.sum, 0.0);
}

// ---------------------------------------------------------- metric name --

TEST(ObsMetricNameTest, RendersLabelsInOrder) {
  EXPECT_EQ(MetricName("dido_x_total", {}), "dido_x_total");
  EXPECT_EQ(MetricName("dido_stage_us", {{"stage", "2"}, {"device", "GPU"}}),
            "dido_stage_us{stage=\"2\",device=\"GPU\"}");
  // Label values with quotes or backslashes are escaped.
  EXPECT_EQ(MetricName("m", {{"k", "a\"b\\c"}}),
            "m{k=\"a\\\"b\\\\c\"}");
}

// ------------------------------------------------------------- registry --

TEST(ObsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("dido_test_total", "help text");
  EXPECT_EQ(registry.GetCounter("dido_test_total"), counter);
  Gauge* gauge = registry.GetGauge("dido_test_gauge");
  EXPECT_EQ(registry.GetGauge("dido_test_gauge"), gauge);
  AtomicHistogram* histogram = registry.GetHistogram("dido_test_us");
  EXPECT_EQ(registry.GetHistogram("dido_test_us"), histogram);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(ObsRegistryTest, PrometheusExpositionFormat) {
  MetricsRegistry registry;
  registry.GetCounter("dido_test_events_total", "events seen")->Add(7);
  registry.GetGauge("dido_test_depth")->Set(3.5);
  AtomicHistogram* histogram = registry.GetHistogram("dido_test_wait_us");
  histogram->Record(2.0);
  histogram->Record(200.0);
  const std::string text = registry.RenderPrometheus();

  // The fixed sentinel CI greps for must always be present, even on an
  // empty registry.
  EXPECT_TRUE(Contains(text, "dido_build_info 1"));
  EXPECT_TRUE(Contains(MetricsRegistry().RenderPrometheus(),
                       "dido_build_info 1"));

  EXPECT_TRUE(Contains(text, "# HELP dido_test_events_total events seen"));
  EXPECT_TRUE(Contains(text, "# TYPE dido_test_events_total counter"));
  EXPECT_TRUE(Contains(text, "dido_test_events_total 7"));
  EXPECT_TRUE(Contains(text, "# TYPE dido_test_depth gauge"));
  EXPECT_TRUE(Contains(text, "dido_test_depth 3.5"));
  // Histograms render cumulative buckets terminated by the +Inf series,
  // plus _sum and _count.
  EXPECT_TRUE(Contains(text, "# TYPE dido_test_wait_us histogram"));
  EXPECT_TRUE(Contains(text, "dido_test_wait_us_bucket{le=\"+Inf\"} 2"));
  EXPECT_TRUE(Contains(text, "dido_test_wait_us_sum 202"));
  EXPECT_TRUE(Contains(text, "dido_test_wait_us_count 2"));
}

TEST(ObsRegistryTest, LabeledHistogramKeepsLabelsInBucketSeries) {
  MetricsRegistry registry;
  registry
      .GetHistogram(
          MetricName("dido_stage_us", {{"stage", "1"}, {"device", "CPU"}}))
      ->Record(5.0);
  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(
      text, "dido_stage_us_bucket{stage=\"1\",device=\"CPU\",le=\"+Inf\"} 1"));
  EXPECT_TRUE(
      Contains(text, "dido_stage_us_count{stage=\"1\",device=\"CPU\"} 1"));
}

TEST(ObsRegistryTest, JsonExposition) {
  MetricsRegistry registry;
  registry.GetCounter("dido_test_total")->Add(11);
  registry.GetGauge("dido_test_gauge")->Set(0.25);
  registry.GetHistogram("dido_test_us")->Record(4.0);
  const std::string json = registry.RenderJson();
  EXPECT_TRUE(Contains(json, "\"dido_test_total\""));
  EXPECT_TRUE(Contains(json, "11"));
  EXPECT_TRUE(Contains(json, "\"dido_test_gauge\""));
  EXPECT_TRUE(Contains(json, "\"dido_test_us\""));
  EXPECT_TRUE(Contains(json, "\"count\""));
}

TEST(ObsRegistryTest, CollectorsSampledAtExpositionTime) {
  MetricsRegistry registry;
  std::atomic<int> calls{0};
  registry.RegisterCollector("test", [&calls](std::vector<Sample>* out) {
    calls.fetch_add(1);
    out->push_back({"dido_collected_total", 19.0, /*monotone=*/true});
    out->push_back({"dido_collected_gauge", 2.5, /*monotone=*/false});
  });
  EXPECT_EQ(calls.load(), 0);  // registration alone never samples
  const std::string text = registry.RenderPrometheus();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(Contains(text, "dido_collected_total 19"));
  EXPECT_TRUE(Contains(text, "# TYPE dido_collected_total counter"));
  EXPECT_TRUE(Contains(text, "dido_collected_gauge 2.5"));

  registry.UnregisterCollector("test");
  EXPECT_FALSE(Contains(registry.RenderPrometheus(), "dido_collected_total"));
  EXPECT_EQ(calls.load(), 1);
}

// ---------------------------------------------------------------- trace --

TEST(ObsTraceTest, AddSpanStoresAndSnapshotRoundTrips) {
  TraceCollector trace(16);
  TraceSpan span;
  span.name = "IN.S";
  span.category = "task";
  span.ts_us = 100;
  span.dur_us = 25;
  span.tid = 3;
  span.args_json = "\"device\":\"GPU\",\"queries\":2048";
  trace.AddSpan(span);
  ASSERT_EQ(trace.size(), 1u);
  const std::vector<TraceSpan> spans = trace.Snapshot();
  EXPECT_EQ(spans[0].name, "IN.S");
  EXPECT_EQ(spans[0].tid, 3u);
  EXPECT_EQ(spans[0].dur_us, 25u);
}

TEST(ObsTraceTest, CapacityOverflowDropsAndCounts) {
  TraceCollector trace(4);
  for (int i = 0; i < 10; ++i) trace.AddSpan({});
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(ObsTraceTest, DisabledCollectorRecordsNothing) {
  TraceCollector trace(16);
  trace.set_enabled(false);
  EXPECT_FALSE(trace.enabled());
  trace.AddSpan({});
  EXPECT_EQ(trace.size(), 0u);
  trace.set_enabled(true);
  trace.AddSpan({});
  EXPECT_EQ(trace.size(), 1u);
}

TEST(ObsTraceTest, ChromeTraceJsonShape) {
  TraceCollector trace(16);
  TraceSpan span;
  span.name = "stage1";
  span.category = "stage";
  span.ts_us = 7;
  span.dur_us = 11;
  span.tid = 1;
  span.args_json = "\"device\":\"CPU\"";
  trace.AddSpan(span);
  const std::string json = trace.RenderChromeTrace();
  EXPECT_TRUE(Contains(json, "\"traceEvents\":["));
  EXPECT_TRUE(Contains(json, "\"name\":\"stage1\""));
  EXPECT_TRUE(Contains(json, "\"ph\":\"X\""));
  EXPECT_TRUE(Contains(json, "\"ts\":7"));
  EXPECT_TRUE(Contains(json, "\"dur\":11"));
  EXPECT_TRUE(Contains(json, "\"args\":{\"device\":\"CPU\"}"));
}

TEST(ObsTraceTest, JsonStringEscaping) {
  EXPECT_EQ(TraceJsonString("plain"), "\"plain\"");
  EXPECT_EQ(TraceJsonString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(TraceJsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(TraceJsonString("a\nb\tc"), "\"a\\nb\\tc\"");
}

TEST(ObsTraceTest, NowMicrosAdvancesMonotonically) {
  TraceCollector trace;
  const uint64_t first = trace.NowMicros();
  const uint64_t second = trace.NowMicros();
  EXPECT_GE(second, first);
}

// ---------------------------------------------------------------- drift --

TEST(ObsDriftTest, PerfectPredictionIsZeroError) {
  MetricsRegistry registry;
  CostDriftTracker tracker(&registry, CostDriftTracker::Options());
  tracker.ObserveBatch({100.0, 200.0, 50.0}, {100.0, 200.0, 50.0},
                       {Device::kCpu, Device::kGpu, Device::kCpu});
  EXPECT_EQ(tracker.batches(), 1u);
  EXPECT_DOUBLE_EQ(tracker.RollingTmaxError(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.RollingStageError(), 0.0);
}

TEST(ObsDriftTest, KnownErrorMath) {
  MetricsRegistry registry;
  CostDriftTracker tracker(&registry, CostDriftTracker::Options());
  // Predicted {100, 200} vs observed {100, 100}: T_max error is
  // |200-100|/100 = 1.0; stage errors are 0 and 1, mean 0.5.
  tracker.ObserveBatch({100.0, 200.0}, {100.0, 100.0},
                       {Device::kCpu, Device::kGpu});
  EXPECT_DOUBLE_EQ(tracker.RollingTmaxError(), 1.0);
  EXPECT_DOUBLE_EQ(tracker.RollingStageError(), 0.5);
  // Gauges export the same rolling values plus the last raw T_max pair.
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("dido_sim_costmodel_tmax_abs_rel_error")->Value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("dido_sim_costmodel_stage_abs_rel_error")->Value(),
      0.5);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("dido_sim_costmodel_last_predicted_tmax_us")->Value(),
      200.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("dido_sim_costmodel_last_observed_tmax_us")->Value(),
      100.0);
  EXPECT_EQ(registry.GetCounter("dido_sim_costmodel_batches_total")->Value(),
            1u);
}

TEST(ObsDriftTest, SkipsDegenerateBatches) {
  MetricsRegistry registry;
  CostDriftTracker tracker(&registry, CostDriftTracker::Options());
  const std::vector<Device> two = {Device::kCpu, Device::kGpu};
  tracker.ObserveBatch({}, {}, {});                    // empty
  tracker.ObserveBatch({1.0, 2.0}, {1.0}, two);        // length mismatch
  tracker.ObserveBatch({1.0, 2.0}, {1.0, 2.0},
                       {Device::kCpu});                // devices mismatch
  tracker.ObserveBatch({1.0, 2.0}, {0.0, 0.0}, two);   // all-zero observation
  tracker.ObserveBatch({0.0, 0.0}, {1.0, 2.0}, two);   // all-zero prediction
  EXPECT_EQ(tracker.batches(), 0u);
  EXPECT_EQ(tracker.skipped_samples(), 5u);
  EXPECT_EQ(registry.GetCounter("dido_sim_costmodel_batches_total")->Value(),
            0u);
}

TEST(ObsDriftTest, RollingWindowForgetsOldBatches) {
  MetricsRegistry registry;
  CostDriftTracker::Options options;
  options.window = 2;
  CostDriftTracker tracker(&registry, options);
  const std::vector<Device> cpu = {Device::kCpu};
  tracker.ObserveBatch({200.0}, {100.0}, cpu);  // error 1.0 — will be evicted
  tracker.ObserveBatch({100.0}, {100.0}, cpu);  // error 0.0
  tracker.ObserveBatch({150.0}, {100.0}, cpu);  // error 0.5
  EXPECT_EQ(tracker.batches(), 3u);
  EXPECT_DOUBLE_EQ(tracker.RollingTmaxError(), 0.25);  // mean of {0, 0.5}
}

TEST(ObsDriftTest, ConcurrentObserversStayConsistent) {
  MetricsRegistry registry;
  CostDriftTracker tracker(&registry, CostDriftTracker::Options());
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kBatchesPerThread; ++i) {
        tracker.ObserveBatch({120.0, 80.0}, {100.0, 80.0},
                             {Device::kCpu, Device::kGpu});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracker.batches(),
            static_cast<uint64_t>(kThreads) * kBatchesPerThread);
  EXPECT_NEAR(tracker.RollingTmaxError(), 0.2, 1e-9);
}

TEST(ObsDriftTest, SkippedSamplesAreCountedNotSilent) {
  MetricsRegistry registry;
  CostDriftTracker tracker(&registry, CostDriftTracker::Options());
  const std::vector<Device> two = {Device::kCpu, Device::kGpu};
  tracker.ObserveBatch({}, {}, {});                      // empty
  tracker.ObserveBatch({100.0}, {100.0, 50.0}, two);     // length mismatch
  tracker.ObserveBatch({100.0, 50.0}, {0.0, 0.0}, two);  // all-zero obs
  EXPECT_EQ(tracker.batches(), 0u);
  EXPECT_EQ(tracker.skipped_samples(), 3u);
  EXPECT_TRUE(Contains(registry.RenderPrometheus(),
                       "dido_sim_costmodel_skipped_samples_total 3"));
}

TEST(ObsDriftTest, RetainsDeviceLabeledResidualsAndHistograms) {
  MetricsRegistry registry;
  CostDriftTracker::Options options;
  options.residual_capacity = 3;
  CostDriftTracker tracker(&registry, options);
  tracker.ObserveBatch({100.0, 200.0}, {110.0, 150.0},
                       {Device::kCpu, Device::kGpu});
  tracker.ObserveBatch({100.0, 200.0}, {120.0, 160.0},
                       {Device::kCpu, Device::kGpu});
  const std::vector<StageResidual> residuals = tracker.ResidualsSnapshot();
  ASSERT_EQ(residuals.size(), 3u);  // capacity-bounded, oldest dropped
  EXPECT_EQ(residuals.back().stage, 1u);
  EXPECT_EQ(residuals.back().device, Device::kGpu);
  EXPECT_DOUBLE_EQ(residuals.back().predicted_us, 200.0);
  EXPECT_DOUBLE_EQ(residuals.back().observed_us, 160.0);
  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text,
                       "dido_sim_costmodel_stage_abs_rel_error_pct_count{"
                       "stage=\"0\",device=\"CPU\"} 2"));
  EXPECT_TRUE(Contains(text,
                       "dido_sim_costmodel_stage_abs_rel_error_pct_count{"
                       "stage=\"1\",device=\"GPU\"} 2"));
}

// --------------------------------------------------------- recalibrate --

// Feeds the calibrator `batches` rounds of synthetic residuals where the
// true hardware runs `cpu_truth`/`gpu_truth` slower than the uncalibrated
// model, with optional multiplicative noise on the observations.  The
// predictions include the calibrator's current overlay, exactly like the
// cost model's would.
void DriveSyntheticDrift(OnlineCalibrator* calibrator, int batches,
                         double cpu_truth, double gpu_truth,
                         double noise_amplitude = 0.0) {
  for (int b = 0; b < batches; ++b) {
    const CalibrationOverlay overlay = calibrator->overlay();
    const double noise = TimingModel::NoiseFactor(7, b, noise_amplitude);
    // Two stages per device, distinct base times.
    calibrator->ObserveStage(Device::kCpu, 100.0 * overlay.cpu_scale,
                             100.0 * cpu_truth * noise);
    calibrator->ObserveStage(Device::kCpu, 40.0 * overlay.cpu_scale,
                             40.0 * cpu_truth * noise);
    calibrator->ObserveStage(Device::kGpu, 150.0 * overlay.gpu_scale,
                             150.0 * gpu_truth * noise);
    calibrator->ObserveStage(Device::kGpu, 60.0 * overlay.gpu_scale,
                             60.0 * gpu_truth * noise);
    calibrator->EndBatch();
  }
}

TEST(ObsRecalibrateTest, ConvergesOnSyntheticDrift) {
  OnlineCalibrator::Options options;
  OnlineCalibrator calibrator(options);
  EXPECT_TRUE(calibrator.overlay().identity());
  DriveSyntheticDrift(&calibrator, 400, 1.15, 1.6);
  const CalibrationOverlay overlay = calibrator.overlay();
  EXPECT_GT(overlay.generation, 0u);
  EXPECT_NEAR(overlay.cpu_scale, 1.15, 0.05);
  EXPECT_NEAR(overlay.gpu_scale, 1.6, 0.07);
  // A 60% GPU drift re-ranks pipeline cuts: the replan request fired.
  EXPECT_TRUE(calibrator.TakeReplanRequest());
  EXPECT_FALSE(calibrator.TakeReplanRequest());  // one-shot until next commit
}

TEST(ObsRecalibrateTest, ConvergedLoopStopsCommitting) {
  OnlineCalibrator::Options options;
  OnlineCalibrator calibrator(options);
  DriveSyntheticDrift(&calibrator, 400, 1.15, 1.6);
  const uint64_t settled = calibrator.generation();
  EXPECT_GT(settled, 0u);
  // Once converged, further identical batches sit inside the hysteresis
  // band: no new generations.
  DriveSyntheticDrift(&calibrator, 200, 1.15, 1.6);
  EXPECT_EQ(calibrator.generation(), settled);
}

TEST(ObsRecalibrateTest, HysteresisHoldsUnderExecutorNoise) {
  MetricsRegistry registry;
  OnlineCalibrator::Options options;
  OnlineCalibrator calibrator(options);
  calibrator.AttachObservability(&registry, nullptr);
  // No real drift — only the executor's +-8% per-batch jitter
  // (TimingModel::NoiseFactor at the ExecutorOptions default amplitude).
  // The windowed fit averages it out; calibration must not flap.
  DriveSyntheticDrift(&calibrator, 600, 1.0, 1.0, 0.08);
  EXPECT_EQ(calibrator.generation(), 0u);
  EXPECT_TRUE(calibrator.overlay().identity());
  EXPECT_FALSE(calibrator.TakeReplanRequest());
  // The fits ran and were held, observable in the exposition.
  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "dido_recal_held_fits_total"));
  EXPECT_TRUE(Contains(text, "dido_recal_commits_total 0"));
}

TEST(ObsRecalibrateTest, StepClampAndBoundsLimitEachCommit) {
  MetricsRegistry registry;
  OnlineCalibrator::Options options;
  options.max_scale = 2.0;
  OnlineCalibrator calibrator(options);
  calibrator.AttachObservability(&registry, nullptr);
  // Enough samples for exactly one fit: a 3x drift must be clamped to one
  // 25% step (the per-commit clamp).
  DriveSyntheticDrift(&calibrator, static_cast<int>(options.window / 2),
                      1.0, 3.0);
  ASSERT_EQ(calibrator.generation(), 1u);
  EXPECT_NEAR(calibrator.overlay().gpu_scale, 1.25, 1e-9);
  EXPECT_DOUBLE_EQ(calibrator.overlay().cpu_scale, 1.0);
  // Driven to steady state the scale pins at max_scale, not at the 3x truth.
  DriveSyntheticDrift(&calibrator, 1500, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(calibrator.overlay().gpu_scale, options.max_scale);
  EXPECT_TRUE(Contains(registry.RenderPrometheus(),
                       "dido_recal_clamped_steps_total"));
}

TEST(ObsRecalibrateTest, CommitEmitsGaugesCallbackAndTraceSpan) {
  MetricsRegistry registry;
  TraceCollector trace;
  OnlineCalibrator::Options options;
  int commits = 0;
  CalibrationOverlay last;
  options.on_commit = [&](const CalibrationOverlay& overlay) {
    commits += 1;
    last = overlay;
  };
  OnlineCalibrator calibrator(options);
  calibrator.AttachObservability(&registry, &trace);
  DriveSyntheticDrift(&calibrator, 200, 1.0, 1.5);
  EXPECT_GT(commits, 0);
  EXPECT_EQ(last.generation, calibrator.generation());
  EXPECT_NEAR(last.gpu_scale, 1.5, 0.07);
  const std::string text = registry.RenderPrometheus();
  EXPECT_TRUE(Contains(text, "dido_recal_generation"));
  EXPECT_TRUE(Contains(text, "dido_recal_scale{device=\"CPU\"}"));
  EXPECT_TRUE(Contains(text, "dido_recal_scale{device=\"GPU\"}"));
  EXPECT_TRUE(Contains(text, "dido_recal_prefit_abs_rel_error"));
  EXPECT_TRUE(Contains(text, "dido_recal_postfit_abs_rel_error"));
  // Every commit is one span on the calibration lane, with the fitted
  // scales in its args.
  int spans = 0;
  for (const TraceSpan& span : trace.Snapshot()) {
    if (span.category != "calibration") continue;
    spans += 1;
    EXPECT_EQ(span.name, "recalibrate");
    EXPECT_TRUE(Contains(span.args_json, "generation"));
    EXPECT_TRUE(Contains(span.args_json, "gpu_scale"));
  }
  EXPECT_EQ(spans, commits);
  EXPECT_EQ(trace.ThreadNames().count(98), 1u);
}

TEST(ObsRecalibrateTest, TrackerForwardsResidualsIntoClosedLoop) {
  MetricsRegistry registry;
  OnlineCalibrator::Options recal_options;
  OnlineCalibrator calibrator(recal_options);
  CostDriftTracker::Options options;
  options.calibrator = &calibrator;
  CostDriftTracker tracker(&registry, options);
  // The "hardware" runs the GPU 1.5x slower than predicted; the tracker is
  // the calibrator's only feed.
  for (int b = 0; b < 300; ++b) {
    const CalibrationOverlay overlay = calibrator.overlay();
    tracker.ObserveBatch(
        {80.0 * overlay.cpu_scale, 120.0 * overlay.gpu_scale},
        {80.0, 180.0}, {Device::kCpu, Device::kGpu});
  }
  EXPECT_GT(calibrator.generation(), 0u);
  EXPECT_NEAR(calibrator.overlay().gpu_scale, 1.5, 0.07);
  EXPECT_NEAR(calibrator.overlay().cpu_scale, 1.0, 0.05);
}

// --------------------------------------------------------- thread names --

TEST(ObsTraceTest, ThreadNamesRenderAsMetadataEvents) {
  TraceCollector trace;
  trace.SetThreadName(0, "ingress+stage0 [CPU]");
  trace.SetThreadName(99, "oplog-writer");
  TraceSpan span;
  span.name = "stage0";
  span.category = "stage";
  trace.AddSpan(span);
  const std::string json = trace.RenderChromeTrace();
  EXPECT_TRUE(Contains(json,
                       "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                       "\"tid\":0,\"args\":{\"name\":\"ingress+stage0 "
                       "[CPU]\"}}"));
  EXPECT_TRUE(Contains(json, "\"tid\":99"));
  // Re-naming replaces; names are topology and survive Clear().
  trace.SetThreadName(99, "durability");
  trace.Clear();
  const std::string after = trace.RenderChromeTrace();
  EXPECT_TRUE(Contains(after, "\"durability\""));
  EXPECT_FALSE(Contains(after, "oplog-writer"));
  EXPECT_FALSE(Contains(after, "\"ph\":\"X\""));  // spans cleared
}

}  // namespace
}  // namespace obs
}  // namespace dido
