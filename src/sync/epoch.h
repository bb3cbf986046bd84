#ifndef DIDO_SYNC_EPOCH_H_
#define DIDO_SYNC_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dido {

// Epoch-based reclamation (EBR) for the store's lock-free readers.
//
// DIDO's index is read concurrently by CPU and GPU pipeline stages through
// single-word atomic slots (paper Section III-B2); an unlinked or evicted
// KvObject may therefore still be held as a Search candidate by a reader
// that collected it before the unlink.  Freeing — i.e. returning the slab
// chunk for reuse — must wait until every such reader is provably done.
//
// This manager implements the classic three-generation EBR scheme:
//
//  * A global epoch counter E advances 0, 1, 2, ...
//  * Readers *pin* the current epoch before touching shared pointers and
//    unpin when done.  Two pin flavours exist:
//      - slot pins: registered threads own a cache-line-sized slot and pin
//        by publishing (epoch, active) into it — no shared-write contention
//        between readers;
//      - shared pins: a per-generation reference count.  Used by threads
//        that never registered (the fallback path) and — crucially for the
//        pipeline — by *batches*: a QueryBatch pins once when index
//        candidates are collected (IN.S) and releases when the batch
//        retires, so the pin travels with the batch across stage threads.
//  * Retire(ptr, deleter) places garbage in the limbo list of the current
//    epoch.  Nothing is freed inline.
//  * The epoch advances E -> E+1 only when every active slot pin has
//    observed E and no shared pin from E-1 is still held.  At that moment
//    the limbo list of generation E-1 (two advances old by the time it
//    reuses its list index) is drained: every reader that could have seen
//    those pointers pinned at an epoch <= E-1 and has since unpinned.
//
// Advancement is driven opportunistically: Retire() scans every
// kRetiresPerScan calls, callers under memory pressure call TryReclaim()
// directly, and ReclaimAll() drains everything once readers are quiescent
// (shutdown / tests).
class EpochManager {
 public:
  // Number of epoch generations that can hold garbage or pins at once.
  // Three suffices: pins exist only at E and E-1, and garbage is drained
  // before its generation index is reused.
  static constexpr uint64_t kGenerations = 3;

  // Deleter signature for retired pointers: (context, pointer).  A plain
  // function pointer + context keeps Retire allocation-free apart from the
  // limbo vector itself.
  using Deleter = void (*)(void* ctx, void* ptr);

  struct Options {
    // Participation slots for registered threads.  Threads beyond this
    // count (or never registered) transparently use the shared-pin path.
    size_t max_threads = 64;
  };

  // Aggregate statistics snapshot (see stats()).
  struct Stats {
    uint64_t global_epoch = 0;
    uint64_t retired = 0;      // total Retire() calls
    uint64_t reclaimed = 0;    // deleters actually run
    uint64_t quarantined = 0;  // currently awaiting a safe epoch
    uint64_t advances = 0;     // successful epoch advances
  };

  EpochManager() : EpochManager(Options()) {}
  explicit EpochManager(const Options& options);
  // Drains every limbo list.  Requires quiescence: no pin may be active
  // (checked), so all garbage is freed before the manager goes away.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // --- thread participation -------------------------------------------

  // Registers the calling thread: claims a participation slot and binds it
  // thread-locally to this manager, making Pin()/Unpin() contention-free
  // for this thread.  Returns false when all slots are taken (the thread
  // then transparently uses the shared-pin fallback).  Idempotent.
  bool RegisterCurrentThread();

  // Releases the calling thread's slot, if any.  The thread must not hold
  // an active pin.  Idempotent.
  void UnregisterCurrentThread();

  // True when the calling thread currently owns a participation slot.
  bool CurrentThreadRegistered() const;

  // --- pinning ---------------------------------------------------------

  // Opaque pin handle: identifies which generation refcount (shared path)
  // or slot (registered path) to release.
  struct PinToken {
    uint32_t generation = 0;
    bool shared = false;
  };

  // Pins the current epoch for the calling thread.  Nested pins on a
  // registered thread are counted and collapse onto one slot publication.
  // Unregistered threads fall back to the shared per-generation refcount.
  PinToken Pin();
  void Unpin(PinToken token);

  // Acquires a *transferable* shared pin: unlike Pin(), the returned token
  // is not bound to the calling thread and may be released from any other
  // thread.  This is what a QueryBatch carries across pipeline stages.
  PinToken PinShared();
  void UnpinShared(PinToken token);

  // --- reclamation -----------------------------------------------------

  // Quarantines `ptr` until two epoch advances prove all current readers
  // released it, then invokes deleter(ctx, ptr) exactly once.
  void Retire(void* ptr, Deleter deleter, void* ctx);

  // Attempts one epoch advance; on success drains the generation that
  // became safe and returns the number of pointers reclaimed.  Returns 0
  // when a straggling pin blocks the advance (not an error).
  size_t TryReclaim();

  // Repeatedly advances and drains until the quarantine is empty or a pin
  // blocks progress.  Returns the number of pointers still quarantined
  // (0 when fully drained).  Safe to call at any time; used at pipeline
  // shutdown and in tests.
  size_t ReclaimAll();

  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  Stats stats() const;

 private:
  // One participation slot per registered thread, padded to a cache line
  // so reader pins never false-share.
  struct alignas(64) Slot {
    // 0 when idle; (epoch << 1) | 1 while pinned.  seq_cst publication is
    // what lets TryReclaim's scan trust the value.
    std::atomic<uint64_t> state{0};
    std::atomic<bool> claimed{false};
    // Nesting depth; touched only by the owning thread.
    int nesting = 0;
  };

  struct RetiredPtr {
    void* ptr;
    Deleter deleter;
    void* ctx;
  };

  // Slot bound to this manager for the calling thread, or nullptr.
  Slot* LocalSlot() const;

  // True when every active pin has observed `epoch` — the advance guard.
  bool CanAdvance(uint64_t epoch) const;

  // Advances the epoch if possible and swaps out the newly safe limbo
  // generation.  Returns reclaimed count.
  size_t AdvanceAndDrainLocked() DIDO_REQUIRES(reclaim_mu_);

  const Options options_;
  // Identity used by the thread-local slot bindings; survives address
  // reuse when a manager is destroyed and another allocated in its place.
  const uint64_t manager_id_;

  std::atomic<uint64_t> global_epoch_{1};

  // Slot array: allocated once in the constructor, then only the atomic
  // Slot fields are touched (the pointer itself is never reassigned).
  // dido-analyze: allow(lock): set once at construction, then read-only
  std::unique_ptr<Slot[]> slots_;

  // Shared-pin reference counts, one per generation.  fetch_add/sub with
  // seq_cst — these are the fallback and batch pins.
  std::atomic<uint64_t> shared_pins_[kGenerations];

  // Limbo lists, one per generation, guarded by limbo_mu_.  Retire is off
  // the reader hot path (writers and the allocator call it), so a mutex
  // keeps the bookkeeping simple and TSan-clean.
  mutable Mutex limbo_mu_ DIDO_ACQUIRED_AFTER(reclaim_mu_);
  std::vector<RetiredPtr> limbo_[kGenerations] DIDO_GUARDED_BY(limbo_mu_);

  // Serializes epoch advancement + draining (never held while readers
  // pin; deleters run under it but outside limbo_mu_).
  Mutex reclaim_mu_;

  // Statistics.  Monotonic counters read only through stats(); relaxed
  // ordering suffices because they never order or publish shared state.
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> reclaimed_{0};
  std::atomic<uint64_t> advances_{0};
};

// RAII pin for a lexical scope: pins this thread's epoch on construction,
// unpins on destruction.  Uses the slot fast path when the thread is
// registered, the shared fallback otherwise.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager& manager)
      : manager_(&manager), token_(manager.Pin()) {}
  ~EpochGuard() {
    if (manager_ != nullptr) manager_->Unpin(token_);
  }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;
  EpochGuard(EpochGuard&& other) noexcept
      : manager_(other.manager_), token_(other.token_) {
    other.manager_ = nullptr;
  }
  EpochGuard& operator=(EpochGuard&&) = delete;

 private:
  EpochManager* manager_;
  EpochManager::PinToken token_;
};

// Movable, thread-transferable pin with batch lifetime: acquired by the
// stage that collects index candidates, released (possibly on another
// thread) when the batch retires.  Default-constructed == not held.
class EpochPin {
 public:
  EpochPin() = default;
  explicit EpochPin(EpochManager& manager)
      : manager_(&manager), token_(manager.PinShared()) {}
  ~EpochPin() { Release(); }

  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  EpochPin(EpochPin&& other) noexcept
      : manager_(other.manager_), token_(other.token_) {
    other.manager_ = nullptr;
  }
  EpochPin& operator=(EpochPin&& other) noexcept {
    if (this != &other) {
      Release();
      manager_ = other.manager_;
      token_ = other.token_;
      other.manager_ = nullptr;
    }
    return *this;
  }

  bool held() const { return manager_ != nullptr; }

  void Release() {
    if (manager_ != nullptr) {
      manager_->UnpinShared(token_);
      manager_ = nullptr;
    }
  }

 private:
  EpochManager* manager_ = nullptr;
  EpochManager::PinToken token_;
};

// RAII thread registration: registers on construction (when a slot is
// available), unregisters on destruction unless the thread was already
// registered beforehand.  Pipeline worker threads hold one for their
// lifetime.
class ScopedEpochParticipant {
 public:
  explicit ScopedEpochParticipant(EpochManager& manager)
      : manager_(&manager),
        was_registered_(manager.CurrentThreadRegistered()) {
    if (!was_registered_) manager_->RegisterCurrentThread();
  }
  ~ScopedEpochParticipant() {
    if (!was_registered_) manager_->UnregisterCurrentThread();
  }

  ScopedEpochParticipant(const ScopedEpochParticipant&) = delete;
  ScopedEpochParticipant& operator=(const ScopedEpochParticipant&) = delete;

 private:
  EpochManager* manager_;
  bool was_registered_;
};

}  // namespace dido

#endif  // DIDO_SYNC_EPOCH_H_
