// The traced run's instruments, all outside the library: forwarding
// decorators around RoutingAlgorithm and TrafficPattern that count and
// time every call, and a harness that builds one experiment point layer
// by layer through the public factories (make_topology, make_routing,
// make_pattern, Engine) and drives it exactly as SimulationRun does.
//
// Counters live in one block per thread, so the sharded stepper's
// workers never share a cache line or a lock on the hot path; a block is
// written only by its owning thread and summed after the threads joined.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "api/sweep.hpp"
#include "routing/routing.hpp"
#include "sim/engine.hpp"
#include "traffic/pattern.hpp"

namespace perfbench {

/// Totals of the per-thread call counters since the last reset.
struct CallTotals {
  std::uint64_t decide_calls = 0;  ///< decide + decide_fresh calls
  std::uint64_t decide_waits = 0;  ///< of which returned no hop (no verdict)
  std::uint64_t decide_ns = 0;     ///< time inside decide + decide_fresh
  std::uint64_t fresh_calls = 0;   ///< decide_fresh calls
  std::uint64_t fresh_pure = 0;    ///< of which gave a pure verdict
  std::uint64_t per_cycle_ns = 0;
  std::uint64_t dest_calls = 0;
  std::uint64_t dest_ns = 0;
};

/// Zero every thread's block. Call only while no traced engine runs.
void reset_call_counters();
/// Sum every thread's block. Call only after the traced engines finished.
CallTotals sum_call_counters();

/// Forwards every RoutingAlgorithm virtual to the wrapped mechanism.
/// decide, decide_fresh and per_cycle are counted and timed.
class TracedRouting final : public dfsim::RoutingAlgorithm {
 public:
  explicit TracedRouting(std::unique_ptr<dfsim::RoutingAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::optional<dfsim::RouteChoice> decide(
      dfsim::RoutingContext& ctx) override;
  std::optional<dfsim::Hop> pure_minimal_hop(
      const dfsim::RoutingContext& ctx) override {
    return inner_->pure_minimal_hop(ctx);
  }
  std::optional<dfsim::RouteChoice> decide_fresh(
      dfsim::RoutingContext& ctx, std::optional<dfsim::Hop>* pure_hop) override;
  void per_cycle(dfsim::Engine& engine) override;
  void on_hop(const dfsim::Engine& engine, dfsim::Packet& packet,
              const dfsim::RouteChoice& choice,
              dfsim::RouterId router) override {
    inner_->on_hop(engine, packet, choice, router);
  }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void restore_state(std::istream& is) override { inner_->restore_state(is); }
  int min_local_vcs() const override { return inner_->min_local_vcs(); }
  int min_global_vcs() const override { return inner_->min_global_vcs(); }
  bool supports_wormhole() const override {
    return inner_->supports_wormhole();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<dfsim::RoutingAlgorithm> inner_;
};

/// Forwards TrafficPattern::dest (counted and timed) and name.
class TracedPattern final : public dfsim::TrafficPattern {
 public:
  explicit TracedPattern(std::unique_ptr<dfsim::TrafficPattern> inner)
      : inner_(std::move(inner)) {}
  dfsim::NodeId dest(dfsim::NodeId src, dfsim::Rng& rng) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<dfsim::TrafficPattern> inner_;
};

/// Layer timings and engine counts of one traced point.
struct TracedPoint {
  dfsim::SteadyResult result;  ///< whole-run aggregate, as SimulationRun
  double topology_build_s = 0.0;
  double routing_build_s = 0.0;
  double engine_build_s = 0.0;
  double step_s = 0.0;  ///< wall time inside Engine::run_until / step
  std::uint64_t steps = 0;
  std::uint64_t routers = 0;
  std::uint64_t terminals = 0;
  std::uint64_t footprint_bytes = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t phits_local = 0;
  std::uint64_t phits_global = 0;
  dfsim::Engine::PhaseProfile profile;  ///< all zero unless profiled
};

/// Build and run one point (steady when pt.phases is empty, else phased
/// with the post-phase drain) with traced routing and traffic. `profile`
/// turns on the engine's phase profiler (sharded stepper only).
TracedPoint run_traced_point(const dfsim::ExperimentPoint& pt,
                             std::uint64_t seed, bool profile);

}  // namespace perfbench
