#ifndef DIDO_PIPELINE_TASK_H_
#define DIDO_PIPELINE_TASK_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace dido {

// The fine-grained tasks DIDO partitions query processing into (paper
// Section III-A).  The paper's task (4) IN — index operations — is further
// split into Search / Insert / Delete because DIDO assigns the three index
// operation types to processors independently (Section III-B2).
enum class TaskKind : uint8_t {
  kRv = 0,        // (1) receive packets from network
  kPp = 1,        // (2) packet processing: protocol parsing + key hashing
  kMm = 2,        // (3) memory management: allocation and eviction
  kInSearch = 3,  // (4a) index Search
  kInInsert = 4,  // (4b) index Insert
  kInDelete = 5,  // (4c) index Delete
  kKc = 6,        // (5) key comparison
  kRd = 7,        // (6) read key-value object
  kWr = 8,        // (7) write response packet
  kSd = 9,        // (8) send responses
};

constexpr int kNumTaskKinds = 10;

std::string_view TaskKindName(TaskKind task);

// The dataflow chain used for pipeline partitioning.  Insert and Delete are
// *floating* tasks: they are not part of the chain and are placed on either
// processor independently (flexible index operation assignment).
constexpr std::array<TaskKind, 8> kTaskChain = {
    TaskKind::kRv, TaskKind::kPp, TaskKind::kMm, TaskKind::kInSearch,
    TaskKind::kKc, TaskKind::kRd, TaskKind::kWr, TaskKind::kSd,
};

constexpr int kChainLength = 8;

// Position of a chain task in kTaskChain, or -1 for the floating tasks.
int ChainIndexOf(TaskKind task);

// True for Insert/Delete, the two freely-assignable index operations.
constexpr bool IsFloatingTask(TaskKind task) {
  return task == TaskKind::kInInsert || task == TaskKind::kInDelete;
}

// True for the tasks that run over a query range [begin, end) of a parsed
// batch.  RV/PP/SD touch NIC rings and frame buffers as a whole: they stay
// with the threads that own them, are never stolen, and are not run by
// KvRuntime::RunStage.
constexpr bool IsRangeTask(TaskKind task) {
  return task != TaskKind::kRv && task != TaskKind::kPp &&
         task != TaskKind::kSd;
}

// True for the tasks the GPU has kernels for: the index operations, key
// comparison and value reads.  It cannot run the slab allocator or
// response framing.
constexpr bool IsGpuKernelTask(TaskKind task) {
  return task == TaskKind::kInSearch || task == TaskKind::kInInsert ||
         task == TaskKind::kInDelete || task == TaskKind::kKc ||
         task == TaskKind::kRd;
}

}  // namespace dido

#endif  // DIDO_PIPELINE_TASK_H_
