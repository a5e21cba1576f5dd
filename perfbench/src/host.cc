#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/kernels.h"
#include "common/string_util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// A dependent multiply-add chain the compiler cannot fold; the result is
// published so the loop is not dead code.
std::atomic<uint64_t> g_spin_sink{0};

void Spin(uint64_t iterations) {
  uint64_t x = iterations | 1;
  for (uint64_t i = 0; i < iterations; ++i) x = x * 6364136223846793005ull + i;
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
}

double SpinSeconds(int threads, uint64_t iterations) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(Spin, iterations);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

double EffectiveParallelism(int threads) {
  // About 20 ms of work per thread; the best of three runs of each side
  // filters a descheduled run.
  constexpr uint64_t kIterations = 20'000'000;
  double one = 1e9, many = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::min(one, SpinSeconds(1, kIterations));
    many = std::min(many, SpinSeconds(threads, kIterations));
  }
  return static_cast<double>(threads) * one / many;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::string HostStamp(Workload w) {
  Shape shape = ShapeOf(w);
  int nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  // Service workers run beside the client thread; one vec worker runs morsels
  // inline on the client thread, more run on a pool of their own.
  int workers = std::max(shape.service_workers, shape.vec_workers);
  int threads = shape.service_workers +
                (shape.vec_workers > 1 ? shape.vec_workers : 0) + 1;
  double eff_workers = EffectiveParallelism(threads);
  return htapex::StrFormat(
      "{\"workload\": \"%s\", \"kernel_backend\": \"%s\", \"nproc\": %d, "
      "\"build_type\": \"%s\", \"service_workers\": %d, \"vec_workers\": %d, "
      "\"window\": %d, \"effective_parallelism\": {\"threads\": %d, "
      "\"value\": %.2f}, "
      "\"parallelism_below_workers\": %s}",
      WorkloadName(w),
      htapex::kernels::BackendName(htapex::kernels::ActiveBackend()), nproc,
      PERFBENCH_BUILD_TYPE, shape.service_workers, shape.vec_workers,
      shape.window, threads, eff_workers,
      eff_workers < static_cast<double>(workers) ? "true" : "false");
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

}  // namespace perfbench
