#include "sync/epoch.h"

#include "common/logging.h"

namespace dido {
namespace {

// Retire() attempts an epoch advance every this-many retirements.
constexpr uint64_t kRetiresPerScan = 64;

// Thread-local bindings from manager identity to participation slot.  The
// identity is a process-unique id (not the manager address) so a binding
// left behind by an exited manager can never be confused with a new
// manager allocated at the same address.  The vector is tiny: one entry
// per (thread, live manager) pair.
struct TlsBinding {
  uint64_t manager_id;
  void* slot;
};

thread_local std::vector<TlsBinding> tls_bindings;

std::atomic<uint64_t> next_manager_id{1};

}  // namespace

// relaxed fetch_add for the manager id: it only needs to be unique, it
// orders nothing.
EpochManager::EpochManager(const Options& options)
    : options_(options),
      manager_id_(next_manager_id.fetch_add(1, std::memory_order_relaxed)) {
  DIDO_CHECK_GT(options_.max_threads, 0u);
  slots_ = std::make_unique<Slot[]>(options_.max_threads);
  for (uint64_t g = 0; g < kGenerations; ++g) {
    shared_pins_[g].store(0, std::memory_order_seq_cst);
  }
}

EpochManager::~EpochManager() {
  // Destruction requires quiescence: a still-pinned reader would be left
  // holding pointers whose storage the deleters below hand back.
  for (uint64_t g = 0; g < kGenerations; ++g) {
    DIDO_CHECK_EQ(shared_pins_[g].load(std::memory_order_seq_cst), 0u)
        << "EpochManager destroyed with an active shared pin";
  }
  for (size_t i = 0; i < options_.max_threads; ++i) {
    DIDO_CHECK_EQ(slots_[i].state.load(std::memory_order_seq_cst) & 1, 0u)
        << "EpochManager destroyed with an active slot pin";
  }
  const size_t remaining = ReclaimAll();
  DIDO_CHECK_EQ(remaining, 0u);
}

EpochManager::Slot* EpochManager::LocalSlot() const {
  for (const TlsBinding& binding : tls_bindings) {
    if (binding.manager_id == manager_id_) {
      return static_cast<Slot*>(binding.slot);
    }
  }
  return nullptr;
}

bool EpochManager::RegisterCurrentThread() {
  if (LocalSlot() != nullptr) return true;
  for (size_t i = 0; i < options_.max_threads; ++i) {
    bool expected = false;
    if (slots_[i].claimed.compare_exchange_strong(expected, true,
                                                  std::memory_order_seq_cst)) {
      slots_[i].state.store(0, std::memory_order_seq_cst);
      slots_[i].nesting = 0;
      tls_bindings.push_back(TlsBinding{manager_id_, &slots_[i]});
      return true;
    }
  }
  return false;  // all slots taken: caller falls back to shared pins
}

void EpochManager::UnregisterCurrentThread() {
  for (size_t i = 0; i < tls_bindings.size(); ++i) {
    if (tls_bindings[i].manager_id != manager_id_) continue;
    Slot* slot = static_cast<Slot*>(tls_bindings[i].slot);
    DIDO_CHECK_EQ(slot->nesting, 0)
        << "thread unregistered while holding an epoch pin";
    slot->state.store(0, std::memory_order_seq_cst);
    slot->claimed.store(false, std::memory_order_seq_cst);
    tls_bindings.erase(tls_bindings.begin() + static_cast<long>(i));
    return;
  }
}

bool EpochManager::CurrentThreadRegistered() const {
  return LocalSlot() != nullptr;
}

EpochManager::PinToken EpochManager::Pin() {
  Slot* slot = LocalSlot();
  if (slot == nullptr) return PinShared();  // unregistered-thread fallback
  if (slot->nesting++ == 0) {
    // Publish (epoch, active), then re-read the epoch: if it moved before
    // our publication became visible, a concurrent advance may not have
    // seen the pin, so publish again against the new epoch.  Once the
    // re-read matches, any later advance must observe this slot.
    for (;;) {
      const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
      slot->state.store((epoch << 1) | 1, std::memory_order_seq_cst);
      if (global_epoch_.load(std::memory_order_seq_cst) == epoch) break;
    }
  }
  return PinToken{0, false};
}

void EpochManager::Unpin(PinToken token) {
  if (token.shared) {
    UnpinShared(token);
    return;
  }
  Slot* slot = LocalSlot();
  DIDO_CHECK(slot != nullptr) << "slot pin released on a foreign thread";
  DIDO_CHECK_GT(slot->nesting, 0);
  if (--slot->nesting == 0) {
    slot->state.store(0, std::memory_order_seq_cst);
  }
}

EpochManager::PinToken EpochManager::PinShared() {
  // Same publish-then-verify dance as the slot path, with the count acting
  // as the publication: an increment against a stale epoch is undone and
  // retried, so it can only ever delay an advance, never miss one.
  // dido-analyze: begin-allow(hot): the pin protocol, once per batch.
  for (;;) {
    const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    const uint32_t generation = static_cast<uint32_t>(epoch % kGenerations);
    shared_pins_[generation].fetch_add(1, std::memory_order_seq_cst);
    if (global_epoch_.load(std::memory_order_seq_cst) == epoch) {
      return PinToken{generation, true};
    }
    shared_pins_[generation].fetch_sub(1, std::memory_order_seq_cst);
  }
  // dido-analyze: end-allow(hot)
}

void EpochManager::UnpinShared(PinToken token) {
  DIDO_CHECK(token.shared);
  const uint64_t previous =
      shared_pins_[token.generation].fetch_sub(1, std::memory_order_seq_cst);
  DIDO_CHECK_GT(previous, 0u);
}

void EpochManager::Retire(void* ptr, Deleter deleter, void* ctx) {
  DIDO_CHECK(ptr != nullptr);
  DIDO_CHECK(deleter != nullptr);
  {
    // dido-analyze: allow(hot): retirement is the deferred-reclamation
    // slow path, reached from IN.I only on insert failure or SET
    // supersede; the short limbo-list critical section is the price of
    // keeping Pin/Unpin (the per-query operations) lock-free.
    MutexLock lock(limbo_mu_);
    const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    // dido-analyze: allow(hot): limbo list reaches steady-state capacity;
    // growth is amortized across retirements (see the lock note above).
    limbo_[epoch % kGenerations].push_back(RetiredPtr{ptr, deleter, ctx});
  }
  // relaxed: monotonic statistic; the amortized scan below re-checks all
  // pin state with seq_cst under reclaim_mu_.
  // dido-analyze: allow(hot): retirement slow path (see the lock note).
  const uint64_t count = retired_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (count % kRetiresPerScan == 0) TryReclaim();
}

bool EpochManager::CanAdvance(uint64_t epoch) const {
  // A shared pin from epoch-1 still holds pointers retired up to epoch-1;
  // the generation about to be drained is exactly (epoch-1) mod 3.
  const uint64_t previous_generation =
      (epoch + kGenerations - 1) % kGenerations;
  if (shared_pins_[previous_generation].load(std::memory_order_seq_cst) != 0) {
    return false;
  }
  // Every active slot pin must have observed the current epoch.
  for (size_t i = 0; i < options_.max_threads; ++i) {
    const uint64_t state = slots_[i].state.load(std::memory_order_seq_cst);
    if ((state & 1) != 0 && (state >> 1) != epoch) return false;
  }
  return true;
}

size_t EpochManager::AdvanceAndDrainLocked() {
  const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  if (!CanAdvance(epoch)) return 0;
  std::vector<RetiredPtr> drained;
  {
    // dido-analyze: allow(hot): amortized drain — reached from a stage
    // kernel only via Retire's every-Nth-retirement TryReclaim scan, and
    // the swap under the lock is O(1).
    MutexLock lock(limbo_mu_);
    // Generation (epoch-1) mod 3 holds pointers retired during epoch-1.
    // Every reader that could have collected them pinned at <= epoch-1,
    // and CanAdvance just proved no such pin remains.
    drained.swap(limbo_[(epoch + kGenerations - 1) % kGenerations]);
    global_epoch_.store(epoch + 1, std::memory_order_seq_cst);
  }
  // relaxed: statistics only (see header).
  // dido-analyze: begin-allow(hot): once per advance (amortized drain).
  advances_.fetch_add(1, std::memory_order_relaxed);
  for (const RetiredPtr& retired : drained) {
    retired.deleter(retired.ctx, retired.ptr);
  }
  // relaxed: statistics only (see header).
  reclaimed_.fetch_add(drained.size(), std::memory_order_relaxed);
  // dido-analyze: end-allow(hot)
  return drained.size();
}

size_t EpochManager::TryReclaim() {
  // dido-analyze: allow(hot): single-reclaimer gate for the amortized
  // scan Retire triggers every kRetiresPerScan retirements; stage
  // kernels hit it on the reclamation slow path only.
  MutexLock lock(reclaim_mu_);
  return AdvanceAndDrainLocked();
}

size_t EpochManager::ReclaimAll() {
  MutexLock lock(reclaim_mu_);
  auto quarantined = [this] {
    MutexLock limbo_lock(limbo_mu_);
    size_t count = 0;
    for (uint64_t g = 0; g < kGenerations; ++g) count += limbo_[g].size();
    return count;
  };
  size_t remaining = quarantined();
  while (remaining > 0) {
    const uint64_t before = global_epoch_.load(std::memory_order_seq_cst);
    AdvanceAndDrainLocked();
    if (global_epoch_.load(std::memory_order_seq_cst) == before) {
      break;  // a straggling pin blocks further progress
    }
    remaining = quarantined();
  }
  return remaining;
}

EpochManager::Stats EpochManager::stats() const {
  Stats stats;
  stats.global_epoch = global_epoch_.load(std::memory_order_seq_cst);
  // relaxed loads: individually consistent monotonic statistics, not a
  // linearizable cut (same contract as the other counter snapshots).
  stats.retired = retired_.load(std::memory_order_relaxed);
  stats.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  stats.quarantined = stats.retired - stats.reclaimed;
  stats.advances = advances_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dido
