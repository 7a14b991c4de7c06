#include "workloads.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>

#include "host.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/seed.hpp"

namespace perfbench {

using namespace dfsim;

namespace {

// Run lengths in simulated cycles. They size one timed unit to one or two
// seconds on a 4-CPU host, so a run repeats it many times. The sweep's
// warm-up and measurement are as long as its output checks need: shorter
// windows leave deeply saturated points with no delivered packet.
constexpr Cycle kScaleWarmup = 400;
constexpr Cycle kScaleMeasure = 600;
constexpr Cycle kSweepWarmup = 500;
constexpr Cycle kSweepMeasure = 1500;
constexpr Cycle kManifestWarmup = 1000;
constexpr Cycle kManifestPhase = 1500;
constexpr Cycle kManifestCheckpointEvery = 1000;

WorkloadDef scale_h8_un(std::uint64_t seed) {
  WorkloadDef w;
  w.name = "scale_h8_un";
  ExperimentPoint pt;
  pt.series = "olm/un";
  pt.x = 0.3;
  pt.cfg.h = 8;
  pt.cfg.routing = "olm";
  pt.cfg.pattern = "un";
  pt.cfg.load = 0.3;
  pt.cfg.warmup_cycles = kScaleWarmup;
  pt.cfg.measure_cycles = kScaleMeasure;
  pt.cfg.seed = seed;
  // Select the sharded stepper only while the config still has the knob,
  // so a single-stepper library needs no benchmark change.
  if (pt.cfg.describe().find("\nengine=") != std::string::npos) {
    pt.cfg.set("engine", "sharded");
    w.sharded = true;
  }
  w.points.push_back(pt);
  w.end_checkpoint = true;
  w.unsaturated_load = 0.3;
  return w;
}

WorkloadDef sweep_h3_vct(std::uint64_t seed) {
  WorkloadDef w;
  w.name = "sweep_h3_vct";
  SimConfig base;
  base.h = 3;
  base.warmup_cycles = kSweepWarmup;
  base.measure_cycles = kSweepMeasure;
  base.seed = seed;
  const std::vector<std::string> routings = {"par-6/2", "olm", "rlm",
                                             "valiant", "pb"};
  for (const char* pattern : {"un", "advg+1", "advg+3"}) {
    SimConfig pc = base;
    pc.pattern = pattern;
    for (ExperimentPoint& pt :
         sweep_grid(pc, routings, default_loads(1.0, 6))) {
      pt.series += std::string("/") + pattern;
      w.points.push_back(std::move(pt));
    }
  }
  w.unsaturated_load = 0.2;
  return w;
}

WorkloadDef manifest_h4_wh(std::uint64_t seed) {
  WorkloadDef w;
  w.name = "manifest_h4_wh";
  std::ostringstream m;
  m << "name = perfbench_manifest_h4_wh\n"
    << "h = 4\n"
    << "flow = wormhole\n"
    << "packet_phits = 80\n"
    << "flit_phits = 10\n"
    << "pattern = un\n"
    << "warmup_cycles = " << kManifestWarmup << "\n"
    << "seed = " << seed << "\n"
    << "grid.routing = par-6/2, rlm, valiant, pb\n"
    << "grid.load = 0.1, 0.2, 0.3, 0.4\n"
    << "phase = cycles=" << kManifestPhase << " windows=2\n"
    << "phase = cycles=" << kManifestPhase << " windows=2 pattern=advg+4\n";
  w.manifest_text = m.str();
  w.points = Manifest::parse(w.manifest_text).expand();
  w.checkpoint_every = kManifestCheckpointEvery;
  w.unsaturated_load = 0.2;
  return w;
}

SimulationRun build_run(const WorkloadDef& w, std::size_t i) {
  const ExperimentPoint& pt = w.points[i];
  SimConfig cfg = pt.cfg;
  cfg.seed = w.point_seed(i);
  return pt.phases.empty() ? SimulationRun::steady(cfg)
                           : SimulationRun::phased(cfg, pt.phases);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

std::string point_path(const std::string& dir, std::size_t i,
                       const char* suffix) {
  return dir + "/point_" + std::to_string(i) + suffix;
}

/// Save `run` to `path` through a temp file and a rename, as the sweep
/// runner does; counts and times it.
void save_to(const SimulationRun& run, const std::string& path,
             CheckpointStats& st) {
  const double t0 = now_s();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    run.save_checkpoint(os);
    if (!os) throw std::runtime_error("cannot write checkpoint " + tmp);
  }
  std::filesystem::rename(tmp, path);
  st.save_s += now_s() - t0;
  st.saves += 1;
  st.bytes += std::filesystem::file_size(path);
}

/// One point through SimulationRun with the workload's checkpointing:
/// periodic saves while it runs, then (end_checkpoint) a save, a restore
/// into a freshly built run and a re-save that must be byte-identical.
ExperimentResult run_checkpointed(const WorkloadDef& w, std::size_t i,
                                  const std::string& tmp_dir,
                                  CheckpointStats& st) {
  SimulationRun run = build_run(w, i);
  const std::string ckpt = point_path(tmp_dir, i, ".ckpt");
  if (w.checkpoint_every > 0) {
    while (run.advance(w.checkpoint_every)) save_to(run, ckpt, st);
  } else {
    run.run_to_completion();
  }
  if (w.end_checkpoint) {
    save_to(run, ckpt, st);
    SimulationRun fresh = build_run(w, i);
    const double t0 = now_s();
    {
      std::ifstream is(ckpt, std::ios::binary);
      fresh.restore(is);
    }
    st.restore_s += now_s() - t0;
    const std::string resaved = point_path(tmp_dir, i, ".resave");
    save_to(fresh, resaved, st);
    const bool same = read_file(ckpt) == read_file(resaved);
    std::filesystem::remove(resaved);
    if (!same) {
      throw std::runtime_error(
          "checkpoint re-saved after restore differs from the original");
    }
  }
  std::filesystem::remove(ckpt);

  ExperimentResult r;
  r.series = w.points[i].series;
  r.x = w.points[i].x;
  r.seed = w.point_seed(i);
  r.is_phased = !w.points[i].phases.empty();
  if (r.is_phased) {
    r.phased = run.phased_result();
    r.steady = r.phased.total;
  } else {
    r.steady = run.steady_result();
  }
  return r;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, sep)) out.push_back(cell);
  return out;
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-5 * std::max(std::fabs(a), std::fabs(b)) +
                                 1e-12;
}

/// The merged manifest CSV must hold, for every point, one row per window
/// plus the drain row, with the accepted loads and latencies the reference
/// run got.
std::string check_manifest_csv(const WorkloadDef& w, const std::string& csv,
                               const std::vector<ExperimentResult>& ref) {
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line)) return "merged CSV is empty";
  const std::vector<std::string> header = split(line, ',');
  const auto column = [&](const std::string& name) {
    for (std::size_t c = 0; c < header.size(); ++c) {
      if (header[c] == name) return c;
    }
    throw std::runtime_error("merged CSV has no column " + name);
  };
  const std::size_t seed_col = column("seed");
  const std::size_t load_col = column("accepted_load");
  const std::size_t latency_col = column("avg_latency_cycles");
  // Per point seed: (accepted_load, avg_latency_cycles) per row.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> rows;
  while (std::getline(is, line)) {
    const std::vector<std::string> cells = split(line, ',');
    if (cells.size() != header.size()) return "malformed CSV row: " + line;
    rows[std::stoull(cells[seed_col])].emplace_back(
        std::stod(cells[load_col]), std::stod(cells[latency_col]));
  }
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    std::vector<std::pair<double, double>> want;
    for (const PhaseWindow& pw : ref[i].phased.windows) {
      want.emplace_back(pw.stats.accepted_load, pw.stats.avg_latency);
    }
    want.emplace_back(ref[i].phased.drain.accepted_load,
                      ref[i].phased.drain.avg_latency);
    const auto& got = rows[w.point_seed(i)];
    if (got.size() != want.size()) {
      return "merged CSV has " + std::to_string(got.size()) +
             " rows for point " + std::to_string(i) + ", expected " +
             std::to_string(want.size());
    }
    for (std::size_t k = 0; k < want.size(); ++k) {
      if (!close(got[k].first, want[k].first) ||
          !close(got[k].second, want[k].second)) {
        return "merged CSV row " + std::to_string(k) + " of point " +
               std::to_string(i) + " differs from the reference run";
      }
    }
  }
  return "";
}

}  // namespace

std::uint64_t WorkloadDef::point_seed(std::size_t i) const {
  return runtime::derive_seed(points[i].cfg.seed, i);
}

WorkloadDef make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "scale_h8_un") return scale_h8_un(seed);
  if (name == "sweep_h3_vct") return sweep_h3_vct(seed);
  if (name == "manifest_h4_wh") return manifest_h4_wh(seed);
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (known: scale_h8_un, sweep_h3_vct, "
                              "manifest_h4_wh)");
}

double setup_pass(const WorkloadDef& w) {
  const double t0 = now_s();
  for (std::size_t i = 0; i < w.points.size(); ++i) build_run(w, i);
  return now_s() - t0;
}

UnitRun run_unit(const WorkloadDef& w, int workers, const std::string& tmp_dir,
                 const std::vector<ExperimentResult>& reference) {
  UnitRun u;
  try {
    if (!w.manifest_text.empty()) {
      ManifestRunOptions opts;
      opts.run_dir = tmp_dir + "/manifest.run";
      opts.jobs = workers;
      opts.checkpoint_every = w.checkpoint_every;
      const ManifestRunSummary s =
          run_manifest(Manifest::parse(w.manifest_text), opts);
      if (s.ran_points != w.points.size() || !s.merged) {
        u.error = "run_manifest ran " + std::to_string(s.ran_points) + " of " +
                  std::to_string(w.points.size()) + " points";
      } else {
        u.manifest_csv = read_file(s.csv_path);
        u.error = check_manifest_csv(w, u.manifest_csv, reference);
      }
      std::filesystem::remove_all(opts.run_dir);
      u.results = reference;
    } else if (w.end_checkpoint || w.checkpoint_every > 0) {
      u.results.resize(w.points.size());
      runtime::parallel_for(w.points.size(), workers, [&](std::size_t i) {
        CheckpointStats st;
        u.results[i] = run_checkpointed(w, i, tmp_dir, st);
      });
    } else {
      SweepOptions opts;
      opts.jobs = workers;
      u.results = run_experiments(w.points, opts);
    }
  } catch (const std::exception& e) {
    u.error = e.what();
  }
  return u;
}

UnitRun run_instrumented(const WorkloadDef& w, int workers,
                         const std::string& tmp_dir) {
  UnitRun u;
  const std::size_t n = w.points.size();
  u.results.resize(n);
  u.point_s.resize(n);
  std::vector<CheckpointStats> st(n);
  try {
    runtime::parallel_for(n, workers, [&](std::size_t i) {
      const double t0 = now_s();
      if (w.end_checkpoint || w.checkpoint_every > 0) {
        u.results[i] = run_checkpointed(w, i, tmp_dir, st[i]);
      } else {
        u.results[i] =
            run_experiment_point(w.points[i], w.point_seed(i), i, {});
      }
      u.point_s[i] = now_s() - t0;
    });
  } catch (const std::exception& e) {
    u.error = e.what();
  }
  for (const CheckpointStats& s : st) {
    u.ckpt.saves += s.saves;
    u.ckpt.bytes += s.bytes;
    u.ckpt.save_s += s.save_s;
    u.ckpt.restore_s += s.restore_s;
  }
  return u;
}

/// Relative slack for a load measured over `cycles` cycles of a point:
/// five standard deviations of the Bernoulli packet count it rests on,
/// never less than 2%.
double load_slack(const SimConfig& cfg, double load, Cycle cycles) {
  const TopoParams tp = cfg.topo_params();
  const double packets = static_cast<double>(tp.p) * tp.a * tp.g *
                         static_cast<double>(cycles) * load /
                         static_cast<double>(cfg.packet_phits);
  return std::max(0.02, packets > 0 ? 5.0 / std::sqrt(packets) : 1.0);
}

std::string check_point(const WorkloadDef& w, std::size_t i,
                        const ExperimentResult& r) {
  const ExperimentPoint& pt = w.points[i];
  const SimConfig& cfg = pt.cfg;
  const std::string where = "point " + std::to_string(i) + " (" + pt.series +
                            " @" + std::to_string(pt.x) + "): ";
  if (r.steady.deadlock) return where + "deadlock";
  if (r.is_phased && !r.phased.drained) return where + "did not drain";
  if (r.steady.delivered == 0) return where + "delivered nothing";
  double offered = cfg.load;
  Cycle span = cfg.measure_cycles;
  if (r.is_phased) {
    span = 0;
    for (const Phase& ph : pt.phases) {
      offered = std::max(offered, ph.load);
      span += ph.cycles;
    }
  }
  if (r.steady.accepted_load >
      offered * (1.0 + load_slack(cfg, offered, span))) {
    return where + "accepted " + std::to_string(r.steady.accepted_load) +
           " above offered " + std::to_string(offered);
  }
  if (cfg.load > w.unsaturated_load) return "";
  // Below saturation the network accepts what is offered: the whole
  // measurement of a steady point, every window of a phased point's
  // first (uniform) phase.
  std::vector<std::pair<double, Cycle>> measured;
  if (!r.is_phased) {
    measured.emplace_back(r.steady.accepted_load, cfg.measure_cycles);
  } else {
    for (const PhaseWindow& pw : r.phased.windows) {
      if (pw.phase == 0) {
        measured.emplace_back(pw.stats.accepted_load,
                              pw.stats.end - pw.stats.start);
      }
    }
  }
  for (const auto& [accepted, cycles] : measured) {
    if (accepted < cfg.load * (1.0 - load_slack(cfg, cfg.load, cycles))) {
      return where + "accepted " + std::to_string(accepted) +
             " below its unsaturated offered load";
    }
  }
  return "";
}

bool same_results(const SteadyResult& a, const SteadyResult& b) {
  return a.accepted_load == b.accepted_load &&
         a.avg_latency == b.avg_latency && a.p99_latency == b.p99_latency &&
         a.delivered == b.delivered && a.deadlock == b.deadlock;
}

}  // namespace perfbench
