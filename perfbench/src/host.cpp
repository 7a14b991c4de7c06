#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void on_each_cpu(const std::function<void()>& body) {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) {
    body();
    return;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    body();
  }
  sched_setaffinity(0, sizeof(all), &all);
}

namespace {

constexpr std::uint32_t kCalibrationSlots =
    kCalibrationTableBytes / sizeof(std::uint32_t);
// Hash rounds per table load. A purely memory-bound walk slowed about
// 1.6x as much as the simulator (in log terms) when the host got busy;
// this share of arithmetic slows about a third as much as the pure walk.
constexpr int kCalibrationRounds = 64;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

/// A single-cycle permutation of the slots (Sattolo), built once.
const std::vector<std::uint32_t>& calibration_table() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(kCalibrationSlots);
    for (std::uint32_t i = 0; i < kCalibrationSlots; ++i) t[i] = i;
    std::uint64_t r = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = kCalibrationSlots - 1; i > 0; --i) {
      r = mix64(r + i);
      std::swap(t[i], t[r % i]);
    }
    return t;
  }();
  return table;
}

std::uint64_t calibration_walk(const std::vector<std::uint32_t>& t,
                               std::uint32_t start, int steps) {
  std::uint32_t at = start;
  std::uint64_t acc = 0;
  for (int k = 0; k < steps; ++k) {
    at = t[at];
    acc += mix64(acc ^ at);
    for (int r = 0; r < kCalibrationRounds; ++r) acc = mix64(acc + r);
  }
  return acc;
}

}  // namespace

double calibration_s(int threads, int steps) {
  const std::vector<std::uint32_t>& t = calibration_table();
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads));
  std::vector<std::thread> team;
  const double t0 = now_s();
  for (int i = 0; i < threads; ++i) {
    team.emplace_back([&, i] {
      sums[static_cast<std::size_t>(i)] =
          calibration_walk(t, static_cast<std::uint32_t>(i) * 7919u, steps);
    });
  }
  for (std::thread& th : team) th.join();
  const double elapsed = now_s() - t0;
  // Publish the checksums so the walks cannot be optimised away.
  static volatile std::uint64_t sink = 0;
  for (const std::uint64_t x : sums) sink = sink ^ x;
  return elapsed;
}

int live_threads() {
  int n = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

ThreadSampler::ThreadSampler()
    : thread_([this] {
        while (!stop_.load()) {
          const int n = live_threads();
          if (n > max_.load()) max_.store(n);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}

HostClass host_class() {
  HostClass h;
  h.nproc = affinity_cpus();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

std::string build_refusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "this is a sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "this is a sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "assertions are enabled (not a Release build)";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is ") + PERFBENCH_BUILD_TYPE;
  }
  return "";
}

}  // namespace perfbench
