#ifndef DIDO_COMMON_SIM_TIME_H_
#define DIDO_COMMON_SIM_TIME_H_

#include <cstdint>

namespace dido {

// All simulated durations in this project are expressed in microseconds as
// doubles, matching the units the paper reports (stage times in us, the
// 300 us / 1000 us scheduling intervals, ...).
using Micros = double;

constexpr Micros kMicrosPerMilli = 1000.0;
constexpr Micros kMicrosPerSecond = 1e6;

// Converts an operations-per-batch / batch-time pair into MOPS (million
// operations per second), the paper's throughput unit.
inline double ToMops(double operations, Micros elapsed_us) {
  if (elapsed_us <= 0.0) return 0.0;
  return operations / elapsed_us;  // ops/us == Mops
}

}  // namespace dido

#endif  // DIDO_COMMON_SIM_TIME_H_
