#include "common/stats.h"

#include <cmath>

namespace dido {

void RunningStats::Reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  m3_ = 0.0;
}

void RunningStats::Add(double x) {
  // Welford-style single-pass update extended to the third moment
  // (Pebay 2008, Eq. 1.18-1.19).
  const uint64_t n1 = count_;
  count_ += 1;
  const double delta = x - mean_;
  const double delta_n = delta / static_cast<double>(count_);
  const double term1 = delta * delta_n * static_cast<double>(n1);
  mean_ += delta_n;
  m3_ += term1 * delta_n * static_cast<double>(count_ - 2) -
         3.0 * delta_n * m2_;
  m2_ += term1;
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double mean = mean_ + delta * nb / n;
  const double m2 = m2_ + other.m2_ + delta * delta * na * nb / n;
  const double m3 = m3_ + other.m3_ +
                    delta * delta * delta * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  count_ += other.count_;
  mean_ = mean;
  m2_ = m2;
  m3_ = m3;
}

double RunningStats::PopulationVariance() const {
  return count_ > 0 ? m2_ / static_cast<double>(count_) : 0.0;
}

double RunningStats::PopulationStdDev() const {
  return std::sqrt(PopulationVariance());
}

double RunningStats::SkewnessG1() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double variance = m2_ / n;
  if (variance <= 0.0) return 0.0;
  return (m3_ / n) / std::pow(variance, 1.5);
}

double RunningStats::SkewnessAdjusted() const {
  if (count_ < 3) return 0.0;
  const double n = static_cast<double>(count_);
  return SkewnessG1() * std::sqrt(n * (n - 1.0)) / (n - 2.0);
}

}  // namespace dido
