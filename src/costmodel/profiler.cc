#include "costmodel/profiler.h"

#include <algorithm>
#include <cmath>

#include "common/zipf.h"

namespace dido {
namespace {

// Below this estimated theta a workload is treated as uniform.
constexpr double kUniformThreshold = 0.25;

// Paper: "the upper limit for the alteration of workload counters is set to
// 10%".
constexpr double kReplanThreshold = 0.10;

// EWMA weight of the newest skew estimate.
constexpr double kSkewEwmaAlpha = 0.5;

}  // namespace

double SkewEstimator::ExpectedMeanCount(double theta, uint64_t epoch_accesses,
                                        uint64_t num_objects) {
  if (num_objects == 0 || epoch_accesses == 0) return 1.0;
  const double zeta_t = ZetaSum(num_objects, theta);
  const double s2 = ZetaSum(num_objects, 2.0 * theta) / (zeta_t * zeta_t);
  return 1.0 + s2 * static_cast<double>(epoch_accesses - 1) / 2.0;
}

double SkewEstimator::EstimateTheta(double mean_sampled_count,
                                    uint64_t epoch_accesses,
                                    uint64_t num_objects) {
  if (num_objects < 2 || epoch_accesses < 2) return 0.0;
  if (mean_sampled_count <= ExpectedMeanCount(0.0, epoch_accesses, num_objects)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = 1.5;
  if (mean_sampled_count >= ExpectedMeanCount(hi, epoch_accesses, num_objects)) {
    return hi;
  }
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (ExpectedMeanCount(mid, epoch_accesses, num_objects) <
        mean_sampled_count) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

WorkloadProfiler::WorkloadProfiler(const Options& options)
    : options_(options) {}

void WorkloadProfiler::Observe(const WorkloadProfileData& measured,
                               const BatchMeasurements& measurements) {
  last_measured_ = measured;
  observed_batches_ += 1;

  for (uint32_t freq : measurements.sampled_frequencies) {
    epoch_freq_stats_.Add(static_cast<double>(freq));
  }
  epoch_accesses_ += measurements.hits;
  epoch_batches_ += 1;
  if (epoch_batches_ >= options_.batches_per_epoch) FinalizeEpoch();
}

void WorkloadProfiler::FinalizeEpoch() {
  if (epoch_freq_stats_.count() > 0 && epoch_accesses_ > 1) {
    const double theta = SkewEstimator::EstimateTheta(
        epoch_freq_stats_.mean(), epoch_accesses_, last_measured_.num_objects);
    if (!skew_valid_) {
      skew_estimate_ = theta;
      skew_valid_ = true;
    } else {
      skew_estimate_ =
          kSkewEwmaAlpha * theta + (1.0 - kSkewEwmaAlpha) * skew_estimate_;
    }
  }
  epoch_freq_stats_.Reset();
  epoch_accesses_ = 0;
  epoch_batches_ = 0;
  epoch_ += 1;
}

WorkloadProfileData WorkloadProfiler::Estimate() const {
  if (observed_batches_ == 0) return WorkloadProfileData();
  WorkloadProfileData estimate = last_measured_;
  if (skew_valid_) {
    estimate.zipf = skew_estimate_ > kUniformThreshold;
    estimate.zipf_skew = estimate.zipf ? skew_estimate_ : 0.0;
  }
  return estimate;
}

bool WorkloadProfiler::ShouldReplan() const {
  if (!planned_valid_) return observed_batches_ > 0;
  const WorkloadProfileData estimate = Estimate();

  auto drifted = [this](double now, double planned) {
    const double base = std::max(std::fabs(planned), 1e-9);
    return std::fabs(now - planned) / base > kReplanThreshold;
  };
  if (drifted(estimate.get_ratio, planned_.get_ratio)) return true;
  if (drifted(estimate.avg_key_bytes, planned_.avg_key_bytes)) return true;
  if (drifted(estimate.avg_value_bytes, planned_.avg_value_bytes)) return true;
  if (estimate.zipf != planned_.zipf) return true;
  if (estimate.zipf &&
      drifted(estimate.zipf_skew, planned_.zipf_skew)) {
    return true;
  }
  return false;
}

void WorkloadProfiler::MarkPlanned() {
  planned_ = Estimate();
  planned_valid_ = true;
}

}  // namespace dido
