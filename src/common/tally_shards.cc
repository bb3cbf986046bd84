#include "common/tally_shards.h"

#include <algorithm>
#include <vector>

namespace dido {
namespace {

struct IdRegistry {
  Mutex mu;
  size_t next DIDO_GUARDED_BY(mu) = 0;  // ids below it were handed out
  std::vector<size_t> free DIDO_GUARDED_BY(mu);  // returned by exited threads
};

// Never destroyed: a thread's exit hook may run after static destruction.
IdRegistry& Registry() {
  static IdRegistry* const registry = new IdRegistry;
  return *registry;
}

}  // namespace

// Returns the thread's id to the registry when the thread exits.
struct ThreadShardId::ExitHook {
  ~ExitHook() {
    IdRegistry& registry = Registry();
    {
      MutexLock lock(registry.mu);
      registry.free.push_back(id_);
    }
    id_ = kExited;
  }
};

size_t ThreadShardId::Register() {
  IdRegistry& registry = Registry();
  {
    MutexLock lock(registry.mu);
    if (registry.free.empty()) {
      id_ = registry.next++;
    } else {
      const auto smallest =
          std::min_element(registry.free.begin(), registry.free.end());
      id_ = *smallest;
      registry.free.erase(smallest);
    }
  }
  thread_local ExitHook exit_hook;
  return id_;
}

}  // namespace dido
