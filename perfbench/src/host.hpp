// Host-side measurement for the benchmark: clocks, resource usage,
// thread counts and order statistics.
// Nothing here calls into the dfsim library.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic wall-clock seconds.
double now_s();
/// User + system CPU seconds of the whole process (getrusage).
double cpu_s();
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();
/// CPUs this process may run on (sched_getaffinity), at least 1.
int affinity_cpus();
/// Runs body() on each CPU of the affinity set in turn, with the calling
/// thread pinned to that CPU, then restores the calling thread's affinity.
void on_each_cpu(const std::function<void()>& body);
/// Bytes of the table calibration_s walks, resident once it first runs.
constexpr std::size_t kCalibrationTableBytes = std::size_t{8} << 20;
/// Seconds `threads` threads take to do `steps` steps of fixed work each
/// (a dependent walk over a shared 8 MiB table, 64 integer hash rounds
/// per step), from the first start to the last finish. Nothing in it
/// calls the library, so only the host's speed moves it.
double calibration_s(int threads, int steps);
/// Live threads of this process (entries of /proc/self/task).
int live_threads();

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);
/// Sum of the elements.
double sum(const std::vector<double>& v);

/// Samples live_threads() every 5 ms on a background thread while
/// alive, keeping the maximum.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  int max_threads() const { return max_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> max_{0};
  std::thread thread_;
};

/// The build and host class a result is only comparable within.
struct HostClass {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};
HostClass host_class();

/// Empty when this binary is a Release, non-sanitizer build; otherwise
/// the reason the benchmark must refuse to run.
std::string build_refusal();

}  // namespace perfbench
