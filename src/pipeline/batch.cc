#include "pipeline/batch.h"

#include <utility>

namespace dido {

Frame& QueryBatch::AppendFrame(std::vector<Frame>* list) {
  // dido-analyze: begin-allow(hot): per frame, not per query; the vectors
  // grow only until a recycled batch's frame count has settled, and the
  // payload buffer comes from spare_frames_ once the batch was used.
  if (spare_frames_.empty()) {
    list->emplace_back();
  } else {
    list->push_back(std::move(spare_frames_.back()));
    spare_frames_.pop_back();
  }
  // dido-analyze: end-allow(hot)
  return list->back();
}

void QueryBatch::Clear() {
  for (std::vector<Frame>* list : {&frames, &responses}) {
    for (Frame& frame : *list) {
      frame.payload.clear();
      spare_frames_.push_back(std::move(frame));
    }
    list->clear();
  }
  queries.clear();
  epoch_pin.Release();
  staging.clear();
  max_lsn = 0;
  std::vector<uint32_t> frequencies =
      std::move(measurements.sampled_frequencies);
  frequencies.clear();
  measurements = BatchMeasurements();
  measurements.sampled_frequencies = std::move(frequencies);
  enqueued_at = {};
}

}  // namespace dido
