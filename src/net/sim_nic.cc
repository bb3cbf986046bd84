#include "net/sim_nic.h"

#include <cstdio>

#include "faults/fault_registry.h"
#include "obs/metrics.h"

namespace dido {

FrameRing::~FrameRing() { RegisterMetrics(nullptr, metric_ring_name_); }

void FrameRing::RegisterMetrics(obs::MetricsRegistry* registry,
                                std::string_view name) {
  char id[64];
  std::snprintf(id, sizeof(id), "frame_ring:%p",
                static_cast<const void*>(this));
  if (metrics_registry_ != nullptr && metrics_registry_ != registry) {
    metrics_registry_->UnregisterCollector(id);
  }
  metrics_registry_ = registry;
  metric_ring_name_ = std::string(name);
  if (registry == nullptr) return;
  registry->RegisterCollector(id, [this](std::vector<obs::Sample>* samples) {
    samples->push_back(obs::Sample{
        obs::MetricName("dido_frame_ring_depth", {{"ring", metric_ring_name_}}),
        static_cast<double>(size()), /*monotone=*/false});
    samples->push_back(
        obs::Sample{obs::MetricName("dido_frame_ring_dropped_total",
                                    {{"ring", metric_ring_name_}}),
                    static_cast<double>(dropped()), /*monotone=*/true});
  });
}

bool FrameRing::Push(Frame frame) {
  FaultHit hit;
  if (DIDO_FAULT_POINT_HIT("net.frame_ring.drop", &hit)) {
    // Injected transport loss: the frame vanishes as if the wire ate it.
    MutexLock lock(mu_);
    dropped_ += 1;
    return false;
  }
  const bool duplicate = DIDO_FAULT_POINT_HIT("net.frame_ring.duplicate", &hit);
  MutexLock lock(mu_);
  if (duplicate && frames_.size() + 1 < capacity_) {
    frames_.push_back(frame);  // injected duplicate delivery (copy)
  }
  if (frames_.size() >= capacity_) {
    if (policy_ == OverflowPolicy::kDropOldest) {
      frames_.pop_front();
      dropped_ += 1;
      frames_.push_back(std::move(frame));
      return true;
    }
    dropped_ += 1;
    return false;
  }
  frames_.push_back(std::move(frame));
  return true;
}

std::optional<Frame> FrameRing::Pop() {
  MutexLock lock(mu_);
  if (frames_.empty()) return std::nullopt;
  Frame frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

size_t FrameRing::PopBatch(size_t max_frames, std::vector<Frame>* out) {
  MutexLock lock(mu_);
  size_t popped = 0;
  while (popped < max_frames && !frames_.empty()) {
    out->push_back(std::move(frames_.front()));
    frames_.pop_front();
    ++popped;
  }
  return popped;
}

size_t FrameRing::size() const {
  MutexLock lock(mu_);
  return frames_.size();
}

uint64_t FrameRing::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

TrafficSource::TrafficSource(WorkloadGenerator* generator, uint64_t seed)
    : generator_(generator) {
  (void)seed;
  const DatasetSpec& dataset = generator_->spec().dataset;
  key_buffer_.resize(dataset.key_size);
  value_buffer_.resize(dataset.value_size);
}

size_t TrafficSource::FillFrame(Frame* frame, std::vector<Query>* queries_out) {
  frame->payload.clear();
  const DatasetSpec& dataset = generator_->spec().dataset;
  size_t packed = 0;
  for (;;) {
    const Query q = has_pending_ ? pending_ : generator_->Next();
    has_pending_ = false;
    const size_t record_size = EncodedRequestSize(
        q.op, dataset.key_size, q.op == QueryOp::kSet ? dataset.value_size : 0);
    if (packed > 0 &&
        frame->payload.size() + record_size > kMaxFramePayload) {
      // Does not fit: carry the query over to the next frame.
      pending_ = q;
      has_pending_ = true;
      break;
    }
    MaterializeKey(q.key_index, dataset.key_size, key_buffer_.data());
    std::string_view key(reinterpret_cast<const char*>(key_buffer_.data()),
                         dataset.key_size);
    std::string_view value;
    if (q.op == QueryOp::kSet) {
      MaterializeValue(q.key_index, dataset.value_size, ++version_,
                       value_buffer_.data());
      value = std::string_view(
          reinterpret_cast<const char*>(value_buffer_.data()),
          dataset.value_size);
    }
    EncodeRequest(q.op, key, value, &frame->payload);
    if (queries_out != nullptr) queries_out->push_back(q);
    ++packed;
  }
  return packed;
}

}  // namespace dido
