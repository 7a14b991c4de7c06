// perfbench: the repository benchmark binary. One process runs one
// workload, untraced (--trace 0: end-to-end metrics) or traced (--trace 1:
// per-layer metrics), and prints every metric with its unit, then one
// JSON result object as its last line:
//
//   perfbench --workload sweep_h3_vct --seed 1 --seconds 15 --trace 0
//             --tmp DIR
//
// perfbench/run.py builds this binary, stamps the host class and keeps a
// record of every result; see perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "host.hpp"
#include "runtime/parallel_for.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using dfsim::ExperimentResult;

constexpr int kSetupPasses = 3;
constexpr double kSetupCpuS = 0.05;
// Calibration kernel sizes and their times on a quiet 4-vCPU Xeon host;
// see run_untraced.
constexpr int kCalOneSteps = 1 << 14;
constexpr int kCalTeamSteps = 1 << 18;
constexpr double kRefOneS = 0.0055;
constexpr double kRefTeamS = 0.095;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_tmp = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--tmp") {
      a.tmp = val;
      have_tmp = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_tmp) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--tmp DIR");
  }
  return a;
}

/// Clear every DF_* knob the library reads from the environment, then pin
/// the ones the benchmark depends on: the sharded team and sweep workers
/// use every affinity CPU, and run_manifest appends no BENCH record.
void pin_environment(int nproc) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DF_", 3) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("DF_JOBS", std::to_string(nproc).c_str(), 1);
  setenv("DF_BENCH_JSON", "", 1);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    char buf[64];
    for (const Row& r : rows_) {
      std::snprintf(buf, sizeof(buf), "%.17g", r.value);
      std::cout << "metric " << r.name << " = " << buf << " " << r.unit
                << "\n";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[k].value);
      std::cout << (k ? ", " : "") << "\"" << rows_[k].name
                << "\": {\"value\": " << buf << ", \"unit\": \""
                << rows_[k].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

void print_series(const char* name, const std::vector<double>& v) {
  std::cout << "# " << name << " per repetition:";
  for (const double x : v) std::cout << " " << x;
  std::cout << "\n";
}

/// Mean over points of the simulated results, the user-visible outputs.
void add_sim_metrics(Metrics& m, const std::vector<ExperimentResult>& rs) {
  double acc = 0, lat = 0, p99 = 0;
  for (const ExperimentResult& r : rs) {
    acc += r.steady.accepted_load;
    lat += r.steady.avg_latency;
    p99 += r.steady.p99_latency;
  }
  const double n = rs.empty() ? 1.0 : static_cast<double>(rs.size());
  m.add("sim_accepted_load", acc / n, "phits/node/cyc");
  m.add("sim_latency_cyc", lat / n, "cycles");
  m.add("sim_p99_latency_cyc", p99 / n, "cycles");
}

/// Failure accounting: a point fails if it throws, deadlocks, fails an
/// output check, or differs from the first repetition of the same seed
/// (for a manifest unit: its merged CSV differs byte for byte).
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  void fail(const std::string& why, std::size_t points = 1) {
    failed += points;
    correct = false;
    std::cerr << "perfbench: FAIL " << why << "\n";
  }
  /// Checks one unit; returns which points passed.
  std::vector<bool> check_unit(const WorkloadDef& w, const UnitRun& u,
                               const UnitRun* first) {
    std::vector<bool> ok(w.points.size(), false);
    attempted += w.points.size();
    if (!u.error.empty() || u.results.size() != w.points.size()) {
      fail(w.name + ": " + u.error, w.points.size());
      return ok;
    }
    if (first != nullptr && u.manifest_csv != first->manifest_csv) {
      fail(w.name + ": merged CSV differs between repetitions of one seed",
           w.points.size());
      return ok;
    }
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      std::string why = check_point(w, i, u.results[i]);
      if (why.empty() && first != nullptr &&
          !same_results(u.results[i].steady, first->results[i].steady)) {
        why = "point " + std::to_string(i) +
              ": results differ between repetitions of one seed";
      }
      if (!why.empty()) fail(w.name + " " + why);
      ok[i] = why.empty();
    }
    return ok;
  }
};

int run_untraced(const WorkloadDef& w, const Args& args, int nproc) {
  Metrics m;
  Verdict v;
  std::vector<ExperimentResult> reference;
  if (!w.manifest_text.empty()) {
    dfsim::SweepOptions opts;
    opts.jobs = nproc;
    reference = dfsim::run_experiments(w.points, opts);
  }

  // The host's speed drifts: on a shared VM a unit can take 2x longer
  // for minutes at a time, and single-threaded work slows with it. So
  // every timed quantity is measured next to a calibration kernel that
  // calls no library code (calibration_s), run the same way, and is
  // reported in seconds at the kernel's reference time: measured seconds
  // x reference seconds / calibration seconds.
  //
  // Set-up runs in its own serial passes, one round before every timed
  // unit. A round visits each CPU of the affinity set in turn and there
  // alternates set-up passes with single-thread calibration passes, at
  // least kSetupPasses of each and kSetupCpuS seconds per CPU. It keeps
  // the fastest of each: some CPUs run up to 2x slower than others for
  // seconds at a time, and the fastest shows the cost itself. The median
  // over rounds of set-up against calibration is reported.
  const auto setup_round = [&] {
    double setup = setup_pass(w), cal = calibration_s(1, kCalOneSteps);
    on_each_cpu([&] {
      const double t0 = now_s();
      for (int k = 0; k < kSetupPasses || now_s() - t0 < kSetupCpuS; ++k) {
        setup = std::min(setup, setup_pass(w));
        cal = std::min(cal, calibration_s(1, kCalOneSteps));
      }
    });
    return setup * kRefOneS / cal;
  };

  // A timed unit runs between two calibration passes on nproc threads.
  // Wall and CPU seconds per unit are reported as their means over the
  // run against the calibration mean of the same run.
  std::vector<double> setups, walls, cpus, cals;
  std::optional<UnitRun> first;
  const double start = now_s();
  double last = 0.0;
  do {
    const double r0 = now_s();
    setups.push_back(setup_round());
    const double cal_before = calibration_s(nproc, kCalTeamSteps);
    const double c0 = cpu_s(), t0 = now_s();
    const UnitRun u = run_unit(w, nproc, args.tmp, reference);
    walls.push_back(now_s() - t0);
    cpus.push_back(cpu_s() - c0);
    cals.push_back(0.5 * (cal_before + calibration_s(nproc, kCalTeamSteps)));
    v.check_unit(w, u, first ? &*first : nullptr);
    if (!first) first = u;
    last = now_s() - r0;
  } while (now_s() - start + last <= args.seconds);

  const double scale = kRefTeamS / sum(cals);
  m.add("wall_s", sum(walls) * scale, "s");
  m.add("setup_s", median(setups), "s");
  m.add("cpu_s", sum(cpus) * scale, "s");
  // The calibration table is the benchmark's own memory, not the run's.
  const double table_mb = static_cast<double>(kCalibrationTableBytes) / 1048576;
  m.add("peak_rss_mb", peak_rss_mb() - table_mb, "MB");
  add_sim_metrics(m, first->results);
  std::cout << "# " << w.name << ": " << walls.size() << " repetitions of "
            << w.points.size() << " points, fail_frac "
            << static_cast<double>(v.failed) /
                   static_cast<double>(v.attempted)
            << "\n";
  print_series("wall_s", walls);
  print_series("cpu_s", cpus);
  print_series("setup_s (at reference speed)", setups);
  print_series("calibration_s", cals);
  std::cout << "# calibration reference: " << kRefTeamS << " s\n";
  m.print(v.correct, v.attempted, v.failed);
  return 0;
}

int run_traced(const WorkloadDef& w, const Args& args, int nproc) {
  Metrics m;
  Verdict v;
  const std::size_t n = w.points.size();

  // Reference: the workload point by point through the public API, each
  // run_experiment_point call and checkpoint save/restore timed from
  // outside, live threads sampled.
  double c0 = cpu_s(), t0 = now_s();
  UnitRun ref;
  int threads_max = 0;
  {
    ThreadSampler sampler;
    ref = run_instrumented(w, nproc, args.tmp);
    threads_max = sampler.max_threads();
  }
  const double ref_wall = now_s() - t0;
  const double ref_cpu = cpu_s() - c0;
  const std::vector<bool> ref_ok = v.check_unit(w, ref, nullptr);

  // Traced: the same points built layer by layer with traced routing and
  // traffic. A sharded point gets the whole CPU budget as its team. A
  // point fails here if it throws or its results differ from the
  // reference's; a point whose reference already failed is not counted
  // twice.
  reset_call_counters();
  std::vector<TracedPoint> tp(n);
  std::vector<std::string> traced_error(n);
  t0 = now_s();
  dfsim::runtime::parallel_for(n, w.sharded ? 1 : nproc, [&](std::size_t i) {
    try {
      tp[i] = run_traced_point(w.points[i], w.point_seed(i), w.sharded);
      if (ref_ok[i] && !same_results(tp[i].result, ref.results[i].steady)) {
        traced_error[i] = "traced results differ from the untraced run";
      }
    } catch (const std::exception& e) {
      traced_error[i] = e.what();
    }
  });
  const double traced_wall = now_s() - t0;
  const CallTotals calls = sum_call_counters();
  for (std::size_t i = 0; i < n; ++i) {
    if (ref_ok[i] && !traced_error[i].empty()) {
      v.fail(w.name + " point " + std::to_string(i) + ": " + traced_error[i]);
    }
  }

  TracedPoint sum;
  double footprint_per_terminal = 0.0;
  std::uint64_t router_cycles = 0;
  for (const TracedPoint& p : tp) {
    sum.topology_build_s += p.topology_build_s;
    sum.routing_build_s += p.routing_build_s;
    sum.engine_build_s += p.engine_build_s;
    sum.step_s += p.step_s;
    sum.steps += p.steps;
    sum.delivered_packets += p.delivered_packets;
    sum.phits_local += p.phits_local;
    sum.phits_global += p.phits_global;
    sum.profile.arrive_ns += p.profile.arrive_ns;
    sum.profile.deliver_ns += p.profile.deliver_ns;
    sum.profile.alloc_ns += p.profile.alloc_ns;
    sum.profile.flush_ns += p.profile.flush_ns;
    sum.profile.total_ns += p.profile.total_ns;
    router_cycles += p.steps * p.routers;
    if (p.terminals > 0) {
      footprint_per_terminal =
          std::max(footprint_per_terminal,
                   static_cast<double>(p.footprint_bytes) /
                       static_cast<double>(p.terminals));
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double decide_s = static_cast<double>(calls.decide_ns) * 1e-9;
  const double per_cycle_s = static_cast<double>(calls.per_cycle_ns) * 1e-9;
  const double dest_s = static_cast<double>(calls.dest_ns) * 1e-9;
  // decide and dest run in the parallel phases of a sharded step, spread
  // over the team; per_cycle runs on the stepping thread.
  const double team = w.sharded ? static_cast<double>(nproc) : 1.0;
  const double step_self_s =
      sum.step_s - (decide_s + dest_s) / team - per_cycle_s;
  double point_sum = 0.0, point_max = 0.0;
  for (const double s : ref.point_s) {
    point_sum += s;
    point_max = std::max(point_max, s);
  }
  const double workers = static_cast<double>(
      std::min<std::size_t>(n, static_cast<std::size_t>(nproc)));
  const auto count = [](std::uint64_t c) { return static_cast<double>(c); };

  m.add("topology.build_s", sum.topology_build_s, "s");
  m.add("routing.build_s", sum.routing_build_s, "s");
  m.add("routing.decide_calls", count(calls.decide_calls), "count");
  m.add("routing.decide_s", decide_s, "s");
  m.add("routing.wait_frac",
        ratio(count(calls.decide_waits), count(calls.decide_calls)), "ratio");
  m.add("routing.pure_frac",
        ratio(count(calls.fresh_pure), count(calls.fresh_calls)), "ratio");
  m.add("routing.per_cycle_s", per_cycle_s, "s");
  m.add("traffic.dest_calls", count(calls.dest_calls), "count");
  m.add("traffic.dest_s", dest_s, "s");
  m.add("engine.build_s", sum.engine_build_s, "s");
  m.add("engine.steps", count(sum.steps), "count");
  m.add("engine.step_self_s", step_self_s, "s");
  m.add("engine.ns_per_router_cycle",
        ratio(sum.step_s * 1e9, count(router_cycles)), "ns");
  m.add("engine.ns_per_delivered_packet",
        ratio(sum.step_s * 1e9, count(sum.delivered_packets)), "ns");
  m.add("engine.arrive_s", count(sum.profile.arrive_ns) * 1e-9, "s");
  m.add("engine.deliver_s", count(sum.profile.deliver_ns) * 1e-9, "s");
  m.add("engine.alloc_s", count(sum.profile.alloc_ns) * 1e-9, "s");
  m.add("engine.flush_s", count(sum.profile.flush_ns) * 1e-9, "s");
  m.add("engine.serial_frac", sum.profile.serial_fraction(), "ratio");
  m.add("engine.footprint_bytes_per_terminal", footprint_per_terminal,
        "bytes");
  m.add("engine.delivered_packets", count(sum.delivered_packets), "count");
  m.add("engine.phits_local", count(sum.phits_local), "count");
  m.add("engine.phits_global", count(sum.phits_global), "count");
  m.add("ckpt.saves", count(ref.ckpt.saves), "count");
  m.add("ckpt.bytes", count(ref.ckpt.bytes), "bytes");
  m.add("ckpt.save_s", ref.ckpt.save_s, "s");
  m.add("ckpt.restore_s", ref.ckpt.restore_s, "s");
  m.add("runtime.threads_max", threads_max, "count");
  m.add("runtime.cpu_util",
        ratio(ref_cpu, ref_wall * static_cast<double>(nproc)), "ratio");
  m.add("sweep.point_s_p50", median(ref.point_s), "s");
  m.add("sweep.point_s_max", point_max, "s");
  m.add("sweep.tail_frac", ratio(point_max, point_sum / workers), "ratio");
  m.add("trace.overhead", ratio(traced_wall, ref_wall), "ratio");
  std::cout << "# " << w.name << ": untraced " << ref_wall << " s, traced "
            << traced_wall << " s, tracing overhead "
            << ratio(traced_wall, ref_wall) << "x\n";
  m.print(v.correct, v.attempted, v.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const std::string refusal = build_refusal();
    if (!refusal.empty()) {
      std::cerr << "perfbench: refusing to measure: " << refusal << "\n";
      return 2;
    }
    const int nproc = affinity_cpus();
    pin_environment(nproc);
    const WorkloadDef w = make_workload(args.workload, args.seed);
    std::filesystem::create_directories(args.tmp);
    const HostClass h = host_class();
    std::cout << "# host {\"nproc\": " << h.nproc << ", \"cpu_model\": \""
              << json_escape(h.cpu_model) << "\", \"compiler\": \""
              << json_escape(h.compiler) << "\", \"build_type\": \""
              << json_escape(h.build_type) << "\"}\n";
    return args.trace ? run_traced(w, args, nproc)
                      : run_untraced(w, args, nproc);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
