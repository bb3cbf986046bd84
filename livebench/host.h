// Host context for the live-path benchmark: CPU confinement, steal
// accounting, process CPU time and fixed reference loops.  These are what
// let a host-wide slowdown read as such rather than as a regression.
#ifndef LIVEBENCH_HOST_H_
#define LIVEBENCH_HOST_H_

#include <cstdint>
#include <string>
#include <vector>

namespace livebench {

// Confines the calling thread (and every thread it later creates) to two
// CPUs of its allowed set, never CPU 0 while another CPU is available:
// the two highest-numbered allowed CPUs other than 0.  Call before any
// thread starts.  Returns the CPUs now in the affinity mask.
std::vector<int> PinToTwoCpus();

// Kernel thread ids of this process, ascending.
std::vector<int> ThreadIds();

// Confines one thread of this process (0 = the calling thread) to `cpus`.
bool PinThread(int tid, const std::vector<int>& cpus);

// Online CPUs of the machine (nproc).
int OnlineCpus();

// Jiffies of the given CPUs from /proc/stat.
struct CpuJiffies {
  uint64_t steal = 0;
  uint64_t total = 0;  // user .. steal, i.e. every accounted jiffy
};
CpuJiffies ReadCpuJiffies(const std::vector<int>& cpus);

// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();

// Median wall milliseconds of a fixed single-thread ALU loop, timed over
// several repetitions.
double ReferenceLoopMs();

// Median nanoseconds per dependent load of a fixed pointer chase over a
// 16 MiB buffer, far beyond the private caches.  It follows the shared
// memory system, which other guests slow and the ALU loop does not see.
// The first call also builds the chain.
double MemoryChaseNs();

// "2,3" for {2, 3}.
std::string CpuListString(const std::vector<int>& cpus);

}  // namespace livebench

#endif  // LIVEBENCH_HOST_H_
