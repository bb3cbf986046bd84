#ifndef DIDO_COSTMODEL_PROFILER_H_
#define DIDO_COSTMODEL_PROFILER_H_

#include <cstdint>

#include "common/stats.h"
#include "common/thread_annotations.h"
#include "pipeline/batch.h"
#include "pipeline/task_costs.h"

namespace dido {

// Estimates the Zipf skew of the live workload from the access-frequency
// counters KC samples on key-value objects (paper Section IV-B).
//
// Mechanism: each object carries a counter and a sampling-epoch timestamp;
// within an epoch the counter counts accesses.  KC samples every Nth hit's
// post-increment counter value.  The expected mean of those size-biased
// samples after B accesses over a Zipf(n, theta) popularity is
//   E[mean] = 1 + S2(theta, n) * (B - 1) / 2,  S2 = zeta(n,2t)/zeta(n,t)^2
// (second moment of the pmf), which is strictly increasing in theta — so the
// estimator inverts the measured mean by bisection.
class SkewEstimator {
 public:
  // Estimates theta from the mean sampled counter value, the number of
  // accesses in the epoch, and the live object count.  Returns 0 for
  // workloads indistinguishable from uniform.
  static double EstimateTheta(double mean_sampled_count, uint64_t epoch_accesses,
                              uint64_t num_objects);

  // Forward model used by the inversion (exposed for tests).
  static double ExpectedMeanCount(double theta, uint64_t epoch_accesses,
                                  uint64_t num_objects);
};

// The DIDO workload profiler (paper Section III-A / IV-B): per-batch
// counters for GET ratio and key-value sizes, epoch-based skew sampling, and
// the 10% drift trigger that gates re-planning.
class WorkloadProfiler {
 public:
  struct Options {
    // Batches per sampling epoch (epoch length controls skew resolution).
    int batches_per_epoch = 4;
  };

  WorkloadProfiler() : WorkloadProfiler(Options()) {}
  explicit WorkloadProfiler(const Options& options);

  // Feeds one executed batch (measured profile + raw measurements).
  void Observe(const WorkloadProfileData& measured,
               const BatchMeasurements& measurements);

  // Best estimate of the *coming* batch's workload: the last measured
  // counters with the distribution replaced by the sampled-skew estimate.
  // Before any observation this returns defaults.
  WorkloadProfileData Estimate() const;

  // True when the tracked counters (GET ratio, key/value size, skew) have
  // drifted more than 10% since MarkPlanned().
  bool ShouldReplan() const;
  void MarkPlanned();

  double estimated_skew() const { return skew_estimate_; }
  // Sampling epoch id; KvRuntime::set_sampling_epoch must track this.
  uint64_t epoch() const { return epoch_; }
  bool has_observations() const { return observed_batches_ > 0; }

 private:
  // DIDO_COLD: per-epoch skew estimation (zeta sums, allocation) runs once
  // every batches_per_epoch observations — control plane by construction,
  // so the hot pass does not walk into it from the stage loops.
  void FinalizeEpoch() DIDO_COLD;

  Options options_;
  WorkloadProfileData last_measured_;
  WorkloadProfileData planned_;
  bool planned_valid_ = false;
  uint64_t observed_batches_ = 0;

  // Epoch accumulation.
  uint64_t epoch_ = 1;
  int epoch_batches_ = 0;
  RunningStats epoch_freq_stats_;
  uint64_t epoch_accesses_ = 0;
  double skew_estimate_ = 0.0;
  bool skew_valid_ = false;
};

}  // namespace dido

#endif  // DIDO_COSTMODEL_PROFILER_H_
