#ifndef DIDO_COMMON_STATS_H_
#define DIDO_COMMON_STATS_H_

#include <cstdint>

namespace dido {

// Streaming moment accumulator.  Tracks count, mean, and the second and
// third central moments so that the Joanes & Gill (1998) sample-skewness
// estimators can be evaluated without storing samples — this is the
// estimator the DIDO profiler uses to recover the Zipf skew of the live
// workload from sampled key frequencies (paper Section IV-B).
class RunningStats {
 public:
  RunningStats() { Reset(); }

  void Reset();

  // Adds one observation in O(1).
  void Add(double x);

  // Merges another accumulator (parallel-friendly).
  void Merge(const RunningStats& other);

  uint64_t count() const { return count_; }
  double mean() const { return mean_; }

  // Population variance (m2 / n).
  double PopulationVariance() const;
  double PopulationStdDev() const;

  // g1 = m3 / m2^{3/2}: the population ("b1"-style) skewness coefficient.
  double SkewnessG1() const;

  // G1 = g1 * sqrt(n(n-1))/(n-2): the Joanes & Gill adjusted
  // Fisher-Pearson coefficient, less biased for small samples.
  double SkewnessAdjusted() const;

 private:
  uint64_t count_;
  double mean_;
  double m2_;  // sum of squared deviations
  double m3_;  // sum of cubed deviations
};

}  // namespace dido

#endif  // DIDO_COMMON_STATS_H_
