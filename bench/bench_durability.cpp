// Durability tier overhead and recovery cost (DESIGN.md §11).
//
// Part 1 — write throughput vs fsync policy: Put() latency through a
// DidoStore with durability off (volatile baseline), then write-through
// with fsync never / every-N(32) / every-batch.  The gap between the
// baseline and "never" is the log append + ack protocol; the gap between
// "never" and the fsync policies is what the sync schedule costs.
//
// Part 2 — recovery time vs log length: replay-only recovery (no
// checkpoint) of logs with growing record counts, plus one
// checkpoint-covered run showing recovery cost collapsing to the
// checkpoint load.
//
// No paper reference — this tier is an extension; numbers establish the
// repo's own baseline for trend diffs.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dido_store.h"
#include "durability/durability.h"
#include "durability/recovery.h"

using namespace dido;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWriteOps = 8000;
constexpr size_t kValueBytes = 64;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

std::string BenchDir(const std::string& leaf) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("dido_bench_dur_" + leaf))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

DidoOptions StoreOptions() {
  DidoOptions options;
  options.arena_bytes = 16ull << 20;
  options.index_buckets = 1ull << 13;
  options.adaptive = false;
  return options;
}

struct PolicyResult {
  double mops = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Runs kWriteOps Put()s and reports throughput + per-op ack latency.
PolicyResult MeasureWrites(DidoStore* store) {
  PolicyResult result;
  std::vector<double> latencies_us;
  latencies_us.reserve(kWriteOps);
  const std::string value(kValueBytes, 'v');
  const Clock::time_point run_start = Clock::now();
  for (int i = 0; i < kWriteOps; ++i) {
    const std::string key = "bench-key-" + std::to_string(i);
    const Clock::time_point op_start = Clock::now();
    Status status = store->Put(key, value);
    latencies_us.push_back(ElapsedUs(op_start));
    if (!status.ok()) {
      DIDO_LOG(Warning) << "bench put failed: " << status.ToString();
      return result;
    }
  }
  const double total_us = ElapsedUs(run_start);
  std::sort(latencies_us.begin(), latencies_us.end());
  result.mops = kWriteOps / total_us;  // ops/us == Mops/s
  result.p50_us = latencies_us[latencies_us.size() / 2];
  result.p99_us = latencies_us[latencies_us.size() * 99 / 100];
  return result;
}

void RunWriteOverhead() {
  std::printf("%-18s %10s %10s %10s\n", "config", "Mops", "p50(us)",
              "p99(us)");
  struct PolicyCase {
    const char* name;
    bool enabled;
    durability::FsyncPolicy policy;
  };
  const PolicyCase cases[] = {
      {"volatile", false, durability::FsyncPolicy::kNever},
      {"fsync_never", true, durability::FsyncPolicy::kNever},
      {"fsync_every_32", true, durability::FsyncPolicy::kEveryN},
      {"fsync_every_batch", true, durability::FsyncPolicy::kEveryBatch},
  };
  for (const PolicyCase& c : cases) {
    DidoOptions options = StoreOptions();
    if (c.enabled) {
      options.durability.enabled = true;
      options.durability.dir = BenchDir(c.name);
      options.durability.mode = durability::DurabilityMode::kWriteThrough;
      options.durability.fsync_policy = c.policy;
      options.durability.fsync_every_n = 32;
    }
    PolicyResult r;
    {
      DidoStore store(options);
      r = MeasureWrites(&store);
    }
    std::printf("%-18s %10.3f %10.2f %10.2f\n", c.name, r.mops, r.p50_us,
                r.p99_us);
    bench::BenchRecord record;
    record.name = std::string("durability_write_") + c.name;
    record.mops = r.mops;
    record.p50_us = r.p50_us;
    record.p99_us = r.p99_us;
    record.extra = {{"ops", kWriteOps},
                    {"value_bytes", static_cast<double>(kValueBytes)}};
    bench::WriteBenchJson(record);
    if (c.enabled) std::filesystem::remove_all(options.durability.dir);
  }
}

// Builds a log with `records` SETs (no checkpoint unless asked), then
// times a cold Recover() of the directory.
void RunRecoveryPoint(uint64_t records, bool with_checkpoint) {
  const std::string leaf = "recover_" + std::to_string(records) +
                           (with_checkpoint ? "_ckpt" : "");
  const std::string dir = BenchDir(leaf);
  const std::string value(kValueBytes, 'v');
  std::map<std::string, std::string> image;
  {
    durability::DurabilityOptions options;
    options.enabled = true;
    options.dir = dir;
    options.fsync_policy = durability::FsyncPolicy::kNever;  // build the log fast
    durability::DurabilityManager manager(options, DefaultKaveriSpec());
    durability::RecoveryApplier applier;
    applier.apply_set = [](std::string_view, std::string_view, uint32_t) {
      return Status::Ok();
    };
    applier.apply_delete = [](std::string_view) { return Status::Ok(); };
    Status status = manager.Open(applier, nullptr);
    if (!status.ok()) {
      DIDO_LOG(Warning) << "bench log build failed: " << status.ToString();
      return;
    }
    for (uint64_t i = 0; i < records; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      image[key] = value;
      manager.AppendSet(key, value);
    }
    if (with_checkpoint) {
      status = manager.Checkpoint([&](const auto& sink) {
        for (const auto& [k, v] : image) {
          DIDO_RETURN_IF_ERROR(sink(k, v, 1));
        }
        return Status::Ok();
      });
      if (!status.ok()) {
        DIDO_LOG(Warning) << "bench checkpoint failed: " << status.ToString();
      }
    }
    manager.Close();
  }

  uint64_t applied = 0;
  durability::RecoveryApplier applier;
  applier.apply_set = [&](std::string_view, std::string_view, uint32_t) {
    ++applied;
    return Status::Ok();
  };
  applier.apply_delete = [&](std::string_view) { return Status::Ok(); };
  durability::RecoveryStats stats;
  const Clock::time_point start = Clock::now();
  Status status = durability::Recover(dir, applier, &stats);
  const double recover_us = ElapsedUs(start);
  std::filesystem::remove_all(dir);
  if (!status.ok()) {
    DIDO_LOG(Warning) << "bench recovery failed: " << status.ToString();
    return;
  }
  const char* shape = with_checkpoint ? "ckpt+tail" : "replay-only";
  std::printf("%10lu %12s %12.0f %14lu %14lu\n",
              static_cast<unsigned long>(records), shape, recover_us,
              static_cast<unsigned long>(stats.checkpoint_entries),
              static_cast<unsigned long>(stats.log_records_applied));
  bench::BenchRecord record;
  record.name = "durability_" + leaf;
  record.mops = recover_us > 0 ? applied / recover_us : 0.0;
  record.extra = {
      {"recover_us", recover_us},
      {"records", static_cast<double>(records)},
      {"checkpoint_entries", static_cast<double>(stats.checkpoint_entries)},
      {"log_records_applied",
       static_cast<double>(stats.log_records_applied)}};
  bench::WriteBenchJson(record);
}

}  // namespace

int main() {
  bench::SetupBenchLogging();
  bench::PrintHeader("Durability", "oplog overhead + recovery cost");

  std::printf("\n-- write throughput vs fsync policy (%d puts, %zuB values)\n",
              kWriteOps, kValueBytes);
  RunWriteOverhead();

  std::printf("\n-- recovery time vs log length\n");
  std::printf("%10s %12s %12s %14s %14s\n", "records", "shape",
              "recover(us)", "ckpt_entries", "log_applied");
  for (uint64_t records : {1000ull, 10000ull, 50000ull}) {
    RunRecoveryPoint(records, /*with_checkpoint=*/false);
  }
  RunRecoveryPoint(50000, /*with_checkpoint=*/true);

  bench::PrintFooter(
      "write-through acks wait for the covering fsync; recovery replays the "
      "newest valid checkpoint plus the log tail");
  return 0;
}
