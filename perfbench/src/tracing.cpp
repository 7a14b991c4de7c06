#include "tracing.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "host.hpp"
#include "metrics/collector.hpp"
#include "routing/factory.hpp"

namespace perfbench {

using namespace dfsim;

namespace {

enum Field : std::size_t {
  kDecideCalls,
  kDecideWaits,
  kDecideNs,
  kFreshCalls,
  kFreshPure,
  kPerCycleNs,
  kDestCalls,
  kDestNs,
  kFields,
};

// Owner-written, so a relaxed load + store is enough (no read-modify-
// write contention); the atomics only make the final cross-thread sum
// well defined.
struct alignas(64) Block {
  std::array<std::atomic<std::uint64_t>, kFields> f{};
  void add(Field k, std::uint64_t d) {
    f[k].store(f[k].load(std::memory_order_relaxed) + d,
               std::memory_order_relaxed);
  }
};

std::mutex g_blocks_mu;
std::vector<std::unique_ptr<Block>> g_blocks;  // outlive their threads

Block& local_block() {
  thread_local Block* block = [] {
    auto owned = std::make_unique<Block>();
    Block* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_blocks_mu);
    g_blocks.push_back(std::move(owned));
    return raw;
  }();
  return *block;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void reset_call_counters() {
  std::lock_guard<std::mutex> lock(g_blocks_mu);
  for (auto& b : g_blocks) {
    for (auto& c : b->f) c.store(0);
  }
}

CallTotals sum_call_counters() {
  std::array<std::uint64_t, kFields> s{};
  std::lock_guard<std::mutex> lock(g_blocks_mu);
  for (auto& b : g_blocks) {
    for (std::size_t k = 0; k < kFields; ++k) s[k] += b->f[k].load();
  }
  CallTotals t;
  t.decide_calls = s[kDecideCalls];
  t.decide_waits = s[kDecideWaits];
  t.decide_ns = s[kDecideNs];
  t.fresh_calls = s[kFreshCalls];
  t.fresh_pure = s[kFreshPure];
  t.per_cycle_ns = s[kPerCycleNs];
  t.dest_calls = s[kDestCalls];
  t.dest_ns = s[kDestNs];
  return t;
}

std::optional<RouteChoice> TracedRouting::decide(RoutingContext& ctx) {
  const std::uint64_t t0 = now_ns();
  std::optional<RouteChoice> out = inner_->decide(ctx);
  Block& b = local_block();
  b.add(kDecideNs, now_ns() - t0);
  b.add(kDecideCalls, 1);
  if (!out) b.add(kDecideWaits, 1);
  return out;
}

std::optional<RouteChoice> TracedRouting::decide_fresh(
    RoutingContext& ctx, std::optional<Hop>* pure_hop) {
  const std::uint64_t t0 = now_ns();
  std::optional<RouteChoice> out = inner_->decide_fresh(ctx, pure_hop);
  Block& b = local_block();
  b.add(kDecideNs, now_ns() - t0);
  b.add(kDecideCalls, 1);
  b.add(kFreshCalls, 1);
  if (*pure_hop) {
    b.add(kFreshPure, 1);
  } else if (!out) {
    b.add(kDecideWaits, 1);
  }
  return out;
}

void TracedRouting::per_cycle(Engine& engine) {
  const std::uint64_t t0 = now_ns();
  inner_->per_cycle(engine);
  Block& b = local_block();
  b.add(kPerCycleNs, now_ns() - t0);
}

NodeId TracedPattern::dest(NodeId src, Rng& rng) {
  const std::uint64_t t0 = now_ns();
  const NodeId out = inner_->dest(src, rng);
  Block& b = local_block();
  b.add(kDestNs, now_ns() - t0);
  b.add(kDestCalls, 1);
  return out;
}

TracedPoint run_traced_point(const ExperimentPoint& pt, std::uint64_t seed,
                             bool profile) {
  SimConfig cfg = pt.cfg;
  cfg.seed = seed;
  cfg.validate();
  if (!cfg.workload.empty()) {
    throw std::invalid_argument("the traced harness runs plain patterns only");
  }
  TracedPoint out;

  double t = now_s();
  const DragonflyTopology topo = cfg.make_topology();
  out.topology_build_s = now_s() - t;

  t = now_s();
  TracedRouting routing(make_routing(cfg.routing, topo, cfg.routing_params()));
  out.routing_build_s = now_s() - t;

  TracedPattern pattern(make_pattern(topo, cfg.pattern, cfg.pattern_offset,
                                     cfg.global_fraction));

  // The same harness SimulationRun builds: Bernoulli sources at cfg.load,
  // a collector fed by the delivery and generation hooks.
  InjectionProcess inj;
  inj.mode = InjectionProcess::Mode::kBernoulli;
  inj.load = cfg.load;
  inj.onoff_on = cfg.onoff_on;
  inj.onoff_off = cfg.onoff_off;
  Collector collector(cfg.warmup_cycles, topo.num_terminals());
  EngineConfig ec = cfg.engine_config(routing);
  ec.profile = profile;

  t = now_s();
  Engine engine(topo, ec, routing, pattern, inj);
  out.engine_build_s = now_s() - t;
  engine.set_delivery_hook([&collector](const Packet& pkt, Cycle now) {
    collector.on_delivered(pkt, now);
  });
  engine.set_generation_hook([&collector](Cycle now, bool accepted) {
    collector.on_generated(now, accepted);
  });

  const auto run_until = [&](Cycle end) {
    const double t0 = now_s();
    engine.run_until(end);
    out.step_s += now_s() - t0;
  };

  run_until(cfg.warmup_cycles);
  std::vector<std::unique_ptr<TracedPattern>> switched;
  if (pt.phases.empty()) {
    if (!engine.deadlock_detected()) {
      run_until(cfg.warmup_cycles + cfg.measure_cycles);
    }
  } else {
    for (const Phase& ph : pt.phases) {
      if (engine.deadlock_detected()) break;
      if (!ph.pattern.empty()) {
        switched.push_back(std::make_unique<TracedPattern>(make_pattern(
            topo, ph.pattern, cfg.pattern_offset, cfg.global_fraction)));
        engine.set_pattern(*switched.back());
      }
      if (ph.load >= 0.0) engine.set_offered_load(ph.load);
      run_until(engine.now() + ph.cycles);
    }
    // Drain: injection stops and in-flight traffic lands.
    if (!engine.deadlock_detected()) {
      engine.set_offered_load(0.0);
      const Cycle deadline = engine.now() + cfg.max_cycles;
      const double t0 = now_s();
      while (engine.packets_in_flight() > 0 && engine.now() < deadline) {
        if (!engine.step()) break;
      }
      out.step_s += now_s() - t0;
    }
  }

  out.result.avg_latency = collector.avg_latency();
  out.result.p99_latency = collector.p99_latency();
  out.result.accepted_load = collector.accepted_load(engine.now());
  out.result.delivered = collector.delivered_packets();
  out.result.deadlock = engine.deadlock_detected();
  out.steps = engine.now();
  out.routers = static_cast<std::uint64_t>(topo.num_routers());
  out.terminals = static_cast<std::uint64_t>(topo.num_terminals());
  out.footprint_bytes = engine.footprint_bytes();
  out.delivered_packets = engine.delivered_packets();
  out.phits_local = engine.phits_sent(PortClass::kLocal);
  out.phits_global = engine.phits_sent(PortClass::kGlobal);
  out.profile = engine.phase_profile();
  return out;
}

}  // namespace perfbench
