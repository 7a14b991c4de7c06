// The benchmark's named workloads and the ways it runs them.
//
//   scale_h8_un     one h=8 point on the sharded stepper, ending with a
//                   checkpoint save, a restore into a fresh run and a
//                   re-save;
//   sweep_h3_vct    the fig05 grid at h=3 through run_experiments;
//   manifest_h4_wh  a phased wormhole manifest at h=4 through
//                   run_manifest, with periodic checkpoints.
//
// All sources are open-loop Bernoulli at fixed offered loads. Every point
// is seeded with runtime::derive_seed(benchmark seed, point index), the
// derivation run_experiments and run_manifest use themselves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/manifest.hpp"
#include "api/sweep.hpp"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  /// Grid points carrying the benchmark seed; point i runs with
  /// point_seed(i).
  std::vector<dfsim::ExperimentPoint> points;
  /// Non-empty: the timed unit is run_manifest on this text.
  std::string manifest_text;
  dfsim::Cycle checkpoint_every = 0;  ///< periodic in-flight checkpoints
  bool end_checkpoint = false;  ///< save, restore into a fresh run, re-save
  bool sharded = false;         ///< points run on the sharded stepper
  /// Steady points (and the first phase of phased points) at or below
  /// this offered load must accept it.
  double unsaturated_load = 0.0;

  std::uint64_t point_seed(std::size_t i) const;
};

/// Throws std::invalid_argument naming the known workloads.
WorkloadDef make_workload(const std::string& name, std::uint64_t seed);

/// Checkpoint I/O totals of one run of the workload.
struct CheckpointStats {
  std::uint64_t saves = 0;
  std::uint64_t bytes = 0;
  double save_s = 0.0;
  double restore_s = 0.0;
};

/// One timed unit of a workload through its public entry point.
struct UnitRun {
  std::vector<dfsim::ExperimentResult> results;  ///< per point, in order
  std::vector<double> point_s;  ///< per-point wall time (instrumented only)
  CheckpointStats ckpt;
  /// Manifest only: the merged results.csv run_manifest wrote. The
  /// per-point results are the reference run the CSV was checked against.
  std::string manifest_csv;
  std::string error;  ///< non-empty: the unit failed as a whole
};

/// Build every point's SimulationRun (the run factory: topology, routing
/// tables, pattern, engine) serially; returns the seconds it took.
double setup_pass(const WorkloadDef& w);

/// The timed unit: run_experiments, run_manifest or the checkpointed
/// scale point, with `workers` threads. `tmp_dir` holds the manifest's
/// run directory and checkpoint files; `reference` (manifest only) is
/// what the merged CSV must agree with.
UnitRun run_unit(const WorkloadDef& w, int workers, const std::string& tmp_dir,
                 const std::vector<dfsim::ExperimentResult>& reference);

/// The same work point by point on `workers` threads, timing every
/// run_experiment_point call and every checkpoint save and restore from
/// outside. Used by the traced run as its untraced reference.
UnitRun run_instrumented(const WorkloadDef& w, int workers,
                         const std::string& tmp_dir);

/// Output checks of one point; empty when it passes.
std::string check_point(const WorkloadDef& w, std::size_t i,
                        const dfsim::ExperimentResult& r);

/// True when two runs of one point produced the same simulated results.
bool same_results(const dfsim::SteadyResult& a, const dfsim::SteadyResult& b);

}  // namespace perfbench
