#ifndef DIDO_NET_SIM_NIC_H_
#define DIDO_NET_SIM_NIC_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/codec.h"
#include "workload/workload.h"

namespace dido {

namespace obs {
class MetricsRegistry;
}

// One simulated network frame (UDP payload).
struct Frame {
  std::vector<uint8_t> payload;
};

// What FrameRing::Push does when the ring is full.
enum class OverflowPolicy {
  // Drop the incoming frame (tail drop) — the classic NIC behaviour.
  kDropNewest,
  // Evict the oldest queued frame to admit the new one — keeps responses
  // fresh under overload at the cost of abandoning the stalest work.
  kDropOldest,
};

// Bounded MPSC frame ring standing in for a NIC queue.  The RV task pops
// receive frames from it; the SD task pushes response frames to it.
class FrameRing {
 public:
  explicit FrameRing(size_t capacity = 4096,
                     OverflowPolicy policy = OverflowPolicy::kDropNewest)
      : capacity_(capacity), policy_(policy) {}
  ~FrameRing();
  FrameRing(const FrameRing&) = delete;
  FrameRing& operator=(const FrameRing&) = delete;

  // Enqueues a frame.  On overflow the configured policy applies: under
  // kDropNewest the incoming frame is dropped (returns false); under
  // kDropOldest the oldest queued frame is evicted and the new one is
  // admitted (returns true).  Either way dropped() counts the loss.
  //
  // Fault points (chaos builds only): "net.frame_ring.drop" silently loses
  // the frame; "net.frame_ring.duplicate" enqueues it twice — the delivery
  // faults a UDP transport is allowed to exhibit.
  bool Push(Frame frame);

  // Pops the oldest frame, or nullopt when empty.
  std::optional<Frame> Pop();

  // Pops up to `max_frames` frames into `out` (appended).
  size_t PopBatch(size_t max_frames, std::vector<Frame>* out);

  size_t size() const;
  // Frames lost to overflow (either policy) or to an injected drop fault.
  uint64_t dropped() const;

  OverflowPolicy policy() const { return policy_; }

  // Publishes this ring's depth and drop count into `registry` as
  // dido_frame_ring_depth{ring="<name>"} and
  // dido_frame_ring_dropped_total{ring="<name>"} (collector-backed, sampled
  // at exposition time — nothing is added to Push/Pop).  Undone on
  // destruction or by re-registering against nullptr.
  void RegisterMetrics(obs::MetricsRegistry* registry, std::string_view name);

 private:
  const size_t capacity_;
  const OverflowPolicy policy_;
  mutable Mutex mu_;
  std::deque<Frame> frames_ DIDO_GUARDED_BY(mu_);
  uint64_t dropped_ DIDO_GUARDED_BY(mu_) = 0;
  // Exposition-only state: written by RegisterMetrics before concurrent use
  // (or from the destructor, after it), read by the collector lambda.
  // dido-analyze: allow(lock): registration happens-before/after ring use
  obs::MetricsRegistry* metrics_registry_ = nullptr;
  // dido-analyze: allow(lock): set once at registration, then read-only
  std::string metric_ring_name_;
};

// Client-side traffic source: turns a WorkloadGenerator's query stream into
// protocol frames, packing as many records per frame as fit (paper V-A).
class TrafficSource {
 public:
  TrafficSource(WorkloadGenerator* generator, uint64_t seed = 7);

  const WorkloadGenerator& generator() const { return *generator_; }

  // Builds one full frame of encoded requests.  Returns the number of
  // queries packed.  Out-params may be null.
  size_t FillFrame(Frame* frame, std::vector<Query>* queries_out);

 private:
  WorkloadGenerator* generator_;
  std::vector<uint8_t> key_buffer_;
  std::vector<uint8_t> value_buffer_;
  uint32_t version_ = 0;
  bool has_pending_ = false;
  Query pending_{};
};

}  // namespace dido

#endif  // DIDO_NET_SIM_NIC_H_
