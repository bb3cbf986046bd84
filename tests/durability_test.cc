// Durability-tier tests (DESIGN.md §11): oplog record/segment codec and
// group commit, checkpoint write/validate/read, replay recovery, and the
// DidoStore wiring — including simulated power loss via byte surgery on the
// on-disk image (no fault-injection build required; the injected-fault
// crash matrix lives in chaos_test.cc).
//
// The invariant everything here pivots on: after recovery, the store holds
// exactly the acked prefix of the write history — every write whose ack was
// released by a covering sync is present with its final value, and no
// never-acked suffix write resurrects ahead of a lost acked one.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dido_store.h"
#include "durability/checkpoint.h"
#include "durability/durability.h"
#include "durability/oplog.h"
#include "durability/recovery.h"
#include "obs/metrics.h"
#include "sim/device_spec.h"

namespace dido {
namespace durability {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/dido_dur_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Applier that collects the recovered image into a map.
struct MapApplier {
  std::map<std::string, std::string> image;

  RecoveryApplier applier() {
    RecoveryApplier a;
    a.apply_set = [this](std::string_view key, std::string_view value,
                         uint32_t /*version*/) {
      image[std::string(key)] = std::string(value);
      return Status::Ok();
    };
    a.apply_delete = [this](std::string_view key) {
      image.erase(std::string(key));
      return Status::Ok();
    };
    return a;
  }
};

// ----------------------------------------------------------------- oplog --

TEST_F(DurabilityTest, OpLogRoundTripAcrossCloseAndScan) {
  OpLogOptions options;
  options.dir = dir_;
  OpLogWriter writer(options);
  ASSERT_TRUE(writer.Open(/*segment_seq=*/1, /*first_lsn=*/1).ok());
  EXPECT_EQ(writer.Append(LogOp::kSet, "alpha", "1"), 1u);
  EXPECT_EQ(writer.Append(LogOp::kSet, "beta", std::string(300, 'b')), 2u);
  EXPECT_EQ(writer.Append(LogOp::kDelete, "alpha", ""), 3u);
  EXPECT_TRUE(writer.WaitDurable(3, std::chrono::milliseconds(5000)));
  writer.Close();

  const std::vector<SegmentInfo> segments = ListLogSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].seq, 1u);
  std::vector<std::string> keys;
  std::vector<LogOp> ops;
  LogScanStats stats;
  ASSERT_TRUE(ScanLogSegment(segments[0].path,
                             [&](const LogRecordView& record) {
                               keys.emplace_back(record.key);
                               ops.push_back(record.op);
                             },
                             &stats)
                  .ok());
  EXPECT_TRUE(stats.clean_end);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.last_lsn, 3u);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "beta");
  EXPECT_EQ(keys[2], "alpha");
  EXPECT_EQ(ops[2], LogOp::kDelete);
}

TEST_F(DurabilityTest, GroupCommitReleasesConcurrentAppenders) {
  OpLogOptions options;
  options.dir = dir_;
  options.fsync_policy = FsyncPolicy::kEveryBatch;
  OpLogWriter writer(options);
  ASSERT_TRUE(writer.Open(1, 1).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string key = "k";
        key += std::to_string(t) + "_" + std::to_string(i);
        const uint64_t lsn = writer.Append(LogOp::kSet, key, "v");
        if (lsn == 0 ||
            !writer.WaitDurable(lsn, std::chrono::milliseconds(5000))) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const OpLogStats stats = writer.stats();
  writer.Close();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(stats.appends, kThreads * kPerThread);
  EXPECT_EQ(stats.records_written, kThreads * kPerThread);
  EXPECT_GE(stats.fsyncs, 1u);
  // Group commit amortized: strictly fewer write() calls than records
  // (concurrent producers batch behind the single writer thread).
  EXPECT_LT(stats.group_writes, stats.records_written);
  EXPECT_GT(stats.max_group_records, 1u);
}

TEST_F(DurabilityTest, ScanStopsCleanlyAtFlippedTailByte) {
  OpLogOptions options;
  options.dir = dir_;
  OpLogWriter writer(options);
  ASSERT_TRUE(writer.Open(1, 1).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(writer.Append(LogOp::kSet, "key" + std::to_string(i),
                            std::string(64, 'v')),
              0u);
  }
  writer.Close();

  // Byte surgery: flip one bit inside the last record's value, as a torn
  // sector write would.
  const std::vector<SegmentInfo> segments = ListLogSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  const auto file_size = std::filesystem::file_size(segments[0].path);
  {
    std::fstream f(segments[0].path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(file_size - 10));
    char byte;
    f.seekg(static_cast<std::streamoff>(file_size - 10));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(file_size - 10));
    f.write(&byte, 1);
  }

  LogScanStats stats;
  uint64_t records = 0;
  ASSERT_TRUE(ScanLogSegment(segments[0].path,
                             [&](const LogRecordView&) { ++records; }, &stats)
                  .ok());
  EXPECT_EQ(records, 4u);  // the damaged record is dropped, prefix kept
  EXPECT_EQ(stats.torn_records, 1u);
  EXPECT_FALSE(stats.clean_end);
}

TEST_F(DurabilityTest, ScanStopsCleanlyAtShortWriteTail) {
  OpLogOptions options;
  options.dir = dir_;
  OpLogWriter writer(options);
  ASSERT_TRUE(writer.Open(1, 1).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(writer.Append(LogOp::kSet, "key" + std::to_string(i), "value"),
              0u);
  }
  writer.Close();

  const std::vector<SegmentInfo> segments = ListLogSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  const auto file_size = std::filesystem::file_size(segments[0].path);
  std::filesystem::resize_file(segments[0].path, file_size - 7);

  LogScanStats stats;
  uint64_t records = 0;
  ASSERT_TRUE(ScanLogSegment(segments[0].path,
                             [&](const LogRecordView&) { ++records; }, &stats)
                  .ok());
  EXPECT_EQ(records, 4u);
  EXPECT_FALSE(stats.clean_end);
}

TEST_F(DurabilityTest, RotationSplitsSegmentsAtLsnBoundary) {
  OpLogOptions options;
  options.dir = dir_;
  OpLogWriter writer(options);
  ASSERT_TRUE(writer.Open(1, 1).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(writer.Append(LogOp::kSet, "a" + std::to_string(i), "v"), 0u);
  }
  uint64_t boundary = 0;
  ASSERT_TRUE(writer.RotateSegment(2, &boundary).ok());
  EXPECT_EQ(boundary, 3u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_NE(writer.Append(LogOp::kSet, "b" + std::to_string(i), "v"), 0u);
  }
  writer.Close();

  const std::vector<SegmentInfo> segments = ListLogSegments(dir_);
  ASSERT_EQ(segments.size(), 2u);
  LogScanStats first;
  LogScanStats second;
  ASSERT_TRUE(
      ScanLogSegment(segments[0].path, [](const LogRecordView&) {}, &first)
          .ok());
  ASSERT_TRUE(
      ScanLogSegment(segments[1].path, [](const LogRecordView&) {}, &second)
          .ok());
  EXPECT_EQ(first.records, 3u);
  EXPECT_EQ(first.last_lsn, 3u);
  EXPECT_EQ(second.records, 2u);
  EXPECT_EQ(second.last_lsn, 5u);
}

// ------------------------------------------------------------ checkpoint --

TEST_F(DurabilityTest, CheckpointRoundTrip) {
  CheckpointWriter writer(dir_, /*seq=*/1, /*lsn=*/42);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.AppendEntry("alpha", "1", 7).ok());
  ASSERT_TRUE(writer.AppendEntry("beta", std::string(500, 'b'), 9).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.entries(), 2u);

  const std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir_);
  ASSERT_EQ(checkpoints.size(), 1u);
  std::map<std::string, std::pair<std::string, uint32_t>> image;
  CheckpointReadStats stats;
  ASSERT_TRUE(ReadCheckpoint(checkpoints[0].path,
                             [&](std::string_view key, std::string_view value,
                                 uint32_t version) {
                               image[std::string(key)] = {std::string(value),
                                                          version};
                             },
                             &stats)
                  .ok());
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.lsn, 42u);
  ASSERT_EQ(image.size(), 2u);
  EXPECT_EQ(image["alpha"].first, "1");
  EXPECT_EQ(image["alpha"].second, 7u);
  EXPECT_EQ(image["beta"].first, std::string(500, 'b'));
}

TEST_F(DurabilityTest, CheckpointValidatesBeforeApplyingAnything) {
  CheckpointWriter writer(dir_, 1, 1);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        writer.AppendEntry("key" + std::to_string(i), "value", 0).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());

  // Damage one entry in the middle of the body.
  const std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir_);
  ASSERT_EQ(checkpoints.size(), 1u);
  {
    std::fstream f(checkpoints[0].path,
                   std::ios::binary | std::ios::in | std::ios::out);
    const auto file_size = std::filesystem::file_size(checkpoints[0].path);
    f.seekg(static_cast<std::streamoff>(file_size / 2));
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(file_size / 2));
    f.write(&byte, 1);
  }

  // Validate-before-apply: the callback must never fire for a file that
  // fails validation anywhere.
  uint64_t applied = 0;
  CheckpointReadStats stats;
  const Status status = ReadCheckpoint(
      checkpoints[0].path,
      [&](std::string_view, std::string_view, uint32_t) { ++applied; },
      &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(applied, 0u);
}

TEST_F(DurabilityTest, ChecksumPlacementFollowsGpuLoad) {
  const ApuSpec spec = DefaultKaveriSpec();
  // 1 GB of snapshot: the idle coupled GPU streams it far faster than one
  // CPU core can (the LUDA observation) ...
  const ChecksumPlacement idle =
      PlanChecksumPlacement(spec, 1'000'000'000, /*gpu_busy_fraction=*/0.0);
  EXPECT_EQ(idle.device, Device::kGpu);
  EXPECT_LT(idle.gpu_us, idle.cpu_us);
  // ... but a pipeline-saturated GPU should not be handed bulk work.
  const ChecksumPlacement busy =
      PlanChecksumPlacement(spec, 1'000'000'000, /*gpu_busy_fraction=*/1.0);
  EXPECT_EQ(busy.device, Device::kCpu);
  // Tiny payloads never amortize the kernel launch.
  const ChecksumPlacement tiny = PlanChecksumPlacement(spec, 100, 0.0);
  EXPECT_EQ(tiny.device, Device::kCpu);
}

// -------------------------------------------------------------- recovery --

TEST_F(DurabilityTest, RecoverEmptyDirectoryYieldsEmptyStore) {
  MapApplier map;
  RecoveryStats stats;
  ASSERT_TRUE(Recover(dir_ + "/missing", map.applier(), &stats).ok());
  EXPECT_TRUE(map.image.empty());
  EXPECT_EQ(stats.next_lsn, 1u);
  EXPECT_EQ(stats.next_segment_seq, 1u);
  EXPECT_FALSE(stats.used_checkpoint);
}

TEST_F(DurabilityTest, ManagerCheckpointPlusLogTailRecovery) {
  DurabilityOptions options;
  options.enabled = true;
  options.dir = dir_;
  const ApuSpec spec = DefaultKaveriSpec();

  std::map<std::string, std::string> live;  // what the "store" holds
  {
    DurabilityManager manager(options, spec);
    MapApplier ignore;
    ASSERT_TRUE(manager.Open(ignore.applier(), nullptr).ok());
    for (int i = 0; i < 50; ++i) {
      const std::string key = "pre" + std::to_string(i);
      live[key] = "v1";
      ASSERT_NE(manager.AppendSet(key, "v1"), 0u);
    }
    // Snapshot the live image; everything after replays from the log.
    ASSERT_TRUE(manager
                    .Checkpoint([&](const DurabilityManager::SnapshotSink&
                                        sink) {
                      for (const auto& [key, value] : live) {
                        DIDO_RETURN_IF_ERROR(sink(key, value, 0));
                      }
                      return Status::Ok();
                    })
                    .ok());
    for (int i = 0; i < 30; ++i) {
      const std::string key = "post" + std::to_string(i);
      live[key] = "v2";
      ASSERT_NE(manager.AppendSet(key, "v2"), 0u);
    }
    live.erase("pre0");
    ASSERT_NE(manager.AppendDelete("pre0"), 0u);
    manager.Flush();
    manager.Close();
  }

  DurabilityManager reopened(options, spec);
  MapApplier map;
  RecoveryStats stats;
  ASSERT_TRUE(reopened.Open(map.applier(), &stats).ok());
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(stats.checkpoint_entries, 50u);
  EXPECT_EQ(stats.log_records_applied, 31u);  // 30 sets + 1 delete
  EXPECT_EQ(map.image, live);
  // Appends resume past everything recovered.
  EXPECT_GT(stats.next_lsn, 81u);
}

TEST_F(DurabilityTest, RetentionKeepsTwoNewestCheckpoints) {
  DurabilityOptions options;
  options.enabled = true;
  options.dir = dir_;
  DurabilityManager manager(options, DefaultKaveriSpec());
  MapApplier ignore;
  ASSERT_TRUE(manager.Open(ignore.applier(), nullptr).ok());

  const auto snapshot = [](const DurabilityManager::SnapshotSink& sink) {
    return sink("k", "v", 0);
  };
  for (int round = 0; round < 4; ++round) {
    ASSERT_NE(manager.AppendSet("k", "v" + std::to_string(round)), 0u);
    manager.Flush();
    ASSERT_TRUE(manager.Checkpoint(snapshot).ok());
  }
  const DurabilityStats stats = manager.stats();
  manager.Close();

  EXPECT_EQ(stats.checkpoints, 4u);
  EXPECT_EQ(ListCheckpoints(dir_).size(), 2u);
  // Segments fully covered by the fallback checkpoint were deleted.
  EXPECT_GT(stats.segments_truncated, 0u);
}

TEST_F(DurabilityTest, CheckpointDueTracksLogGrowth) {
  DurabilityOptions options;
  options.enabled = true;
  options.dir = dir_;
  options.checkpoint_every_bytes = 1;  // any write makes a checkpoint due
  DurabilityManager manager(options, DefaultKaveriSpec());
  MapApplier ignore;
  ASSERT_TRUE(manager.Open(ignore.applier(), nullptr).ok());
  EXPECT_FALSE(manager.CheckpointDue());

  ASSERT_NE(manager.AppendSet("k", "v"), 0u);
  manager.Flush();
  EXPECT_TRUE(manager.CheckpointDue());
  ASSERT_TRUE(manager
                  .Checkpoint([](const DurabilityManager::SnapshotSink& sink) {
                    return sink("k", "v", 0);
                  })
                  .ok());
  EXPECT_FALSE(manager.CheckpointDue());
  manager.Close();
}

TEST_F(DurabilityTest, ManagerPublishesMetrics) {
  DurabilityOptions options;
  options.enabled = true;
  options.dir = dir_;
  DurabilityManager manager(options, DefaultKaveriSpec());
  MapApplier ignore;
  ASSERT_TRUE(manager.Open(ignore.applier(), nullptr).ok());
  obs::MetricsRegistry registry;
  manager.RegisterMetrics(&registry);
  ASSERT_NE(manager.AppendSet("k", "v"), 0u);
  manager.Flush();

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("dido_dur_log_appends_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dido_dur_log_fsyncs_total"), std::string::npos);
  EXPECT_NE(text.find("dido_dur_log_durable_lsn"), std::string::npos);
  manager.RegisterMetrics(nullptr);
  manager.Close();
}

// ------------------------------------------------------ DidoStore wiring --

DidoOptions SmallStoreOptions(const std::string& dir) {
  DidoOptions options;
  options.arena_bytes = 8ull << 20;
  options.index_buckets = 1 << 12;
  options.adaptive = false;
  options.durability.enabled = true;
  options.durability.dir = dir;
  return options;
}

TEST_F(DurabilityTest, StoreDurabilityIsOffByDefault) {
  DidoOptions options;
  options.arena_bytes = 8ull << 20;
  options.index_buckets = 1 << 12;
  DidoStore store(options);
  EXPECT_EQ(store.durability(), nullptr);
  EXPECT_TRUE(store.durability_status().ok());
  EXPECT_EQ(store.Checkpoint().code(), StatusCode::kUnavailable);
}

TEST_F(DurabilityTest, StoreAckedWritesSurviveCleanRestart) {
  {
    DidoStore store(SmallStoreOptions(dir_));
    ASSERT_TRUE(store.durability_status().ok());
    ASSERT_NE(store.durability(), nullptr);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          store.Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(store.Checkpoint().ok());
    for (int i = 64; i < 96; ++i) {
      ASSERT_TRUE(
          store.Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(store.Delete("key0").ok());
    ASSERT_TRUE(store.Put("key1", "rewritten").ok());
  }  // clean shutdown syncs the tail

  DidoStore reopened(SmallStoreOptions(dir_));
  ASSERT_TRUE(reopened.durability_status().ok());
  EXPECT_FALSE(reopened.Get("key0").ok());  // delete replayed
  Result<std::string> one = reopened.Get("key1");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, "rewritten");  // last write wins across ckpt + log
  for (int i = 2; i < 96; ++i) {
    Result<std::string> value = reopened.Get("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << "key" << i;
    EXPECT_EQ(*value, "v" + std::to_string(i));
  }
  const DurabilityStats stats = reopened.durability()->stats();
  EXPECT_TRUE(stats.recovery.used_checkpoint);
  EXPECT_GT(stats.recovery.log_records_applied, 0u);
}

TEST_F(DurabilityTest, StoreWriteThroughSurvivesSimulatedPowerLoss) {
  {
    DidoStore store(SmallStoreOptions(dir_));
    ASSERT_TRUE(store.durability_status().ok());
    // Write-through: each Put returns only after its LSN is durable, so
    // after a crash *every* one of them must be recovered.
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(store.Put("key" + std::to_string(i), "durable").ok());
    }
    store.durability()->SimulateCrash();
  }

  DidoStore reopened(SmallStoreOptions(dir_));
  ASSERT_TRUE(reopened.durability_status().ok());
  for (int i = 0; i < 40; ++i) {
    Result<std::string> value = reopened.Get("key" + std::to_string(i));
    ASSERT_TRUE(value.ok()) << "acked write lost: key" << i;
    EXPECT_EQ(*value, "durable");
  }
}

TEST_F(DurabilityTest, StoreWriteBehindCrashLosesOnlyContiguousTail) {
  DidoOptions options = SmallStoreOptions(dir_);
  options.durability.mode = DurabilityMode::kWriteBehind;
  // Sync rarely so the crash has an unsynced tail to lose.
  options.durability.fsync_policy = FsyncPolicy::kEveryN;
  options.durability.fsync_every_n = 10000;
  constexpr int kWrites = 200;
  {
    DidoStore store(options);
    ASSERT_TRUE(store.durability_status().ok());
    for (int i = 0; i < kWrites; ++i) {
      ASSERT_TRUE(store.Put("key" + std::to_string(i), "v").ok());
    }
    store.durability()->SimulateCrash();
  }

  // Losses are allowed (write-behind trades them for latency) but must be
  // exactly one contiguous un-synced tail of the LSN order: once one write
  // is missing, every later one must be missing too.
  DidoStore reopened(options);
  ASSERT_TRUE(reopened.durability_status().ok());
  int recovered = 0;
  bool lost_started = false;
  for (int i = 0; i < kWrites; ++i) {
    const bool present = reopened.Get("key" + std::to_string(i)).ok();
    if (present) {
      EXPECT_FALSE(lost_started)
          << "key" << i << " survived after an earlier write was lost";
      ++recovered;
    } else {
      lost_started = true;
    }
  }
  EXPECT_LE(recovered, kWrites);
}

}  // namespace
}  // namespace durability
}  // namespace dido
