#include "host.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

namespace livebench {

std::vector<int> PinToTwoCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> candidates;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &allowed)) candidates.push_back(cpu);
    }
  }
  // Highest-numbered first; CPU 0 (the host's noisiest) only as a last
  // resort on a machine that offers nothing else.
  std::vector<int> chosen;
  for (int cpu : candidates) {
    if (cpu != 0 && chosen.size() < 2) chosen.push_back(cpu);
  }
  if (chosen.empty() && !candidates.empty()) chosen.push_back(candidates[0]);
  std::sort(chosen.begin(), chosen.end());
  if (chosen.empty() || !PinThread(0, chosen)) return {};
  return chosen;
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    tids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

bool PinThread(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

int OnlineCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

CpuJiffies ReadCpuJiffies(const std::vector<int>& cpus) {
  CpuJiffies sum;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') {
      continue;  // not a per-CPU line
    }
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    fields >> cpu;
    if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) continue;
    // user nice system idle iowait irq softirq steal (guest time is already
    // included in user/nice, so it is not added again).
    uint64_t value = 0;
    for (int field = 0; field < 8 && (fields >> value); ++field) {
      sum.total += value;
      if (field == 7) sum.steal += value;
    }
  }
  return sum;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ReferenceLoopMs() {
  constexpr int kRepetitions = 11;
  constexpr uint64_t kIterations = 4'000'000;
  std::vector<double> times;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kIterations; ++i) {
      // A dependent multiply/xor-shift chain: pure ALU latency, no memory.
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
      x += i;
      asm volatile("" : "+r"(x));  // one step per iteration, in order
    }
    asm volatile("" : : "r"(x) : "memory");  // finished before the clock read
    const auto end = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double, std::milli>(end - start).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double MemoryChaseNs() {
  constexpr uint32_t kSlots = 4u << 20;  // 16 MiB of uint32_t links
  constexpr int kRepetitions = 3;
  constexpr uint32_t kHops = 50'000;
  // Sattolo's algorithm with a fixed xorshift stream: one cycle through
  // every slot, the same on every run.
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> links(kSlots);
    std::iota(links.begin(), links.end(), 0u);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(links[i], links[x % i]);
    }
    return links;
  }();
  std::vector<double> times;
  uint32_t slot = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (uint32_t i = 0; i < kHops; ++i) slot = next[slot];
    asm volatile("" : : "r"(slot) : "memory");  // finished before the clock read
    const auto end = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double, std::nano>(end - start).count() /
                    kHops);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

std::string CpuListString(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) {
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

}  // namespace livebench
