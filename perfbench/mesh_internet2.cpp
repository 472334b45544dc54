// mesh_internet2: traffic::Workload in mesh mode on gen:internet2:scale=9
// (99 switches, bottleneck designation cleared), Poisson arrivals and
// bounded-Pareto sizes, open loop in simulated time. The only workload
// with a deep event queue and routes wider than 64 bits.
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "alloc_count.hpp"
#include "common/rng.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "topogen/topogen.hpp"
#include "topology/autoroute.hpp"
#include "traffic/workload.hpp"
#include "transport/flows.hpp"
#include "workloads.hpp"

namespace kar::perfbench {
namespace {

constexpr const char* kTopology = "gen:internet2:scale=9";
constexpr std::size_t kFlows = 2500;
constexpr double kArrivalRatePerS = 2000.0;

/// A seed's plan must carry within this share of the expected offered
/// segment-hops, so every seed yields an input of the same stated size.
constexpr double kWorkTolerance = 0.01;
constexpr std::size_t kMaxCandidates = 10000;

topo::Scenario mesh_scenario() {
  topo::Scenario scenario = topogen::make_from_spec(kTopology);
  scenario.bottleneck_a.clear();
  scenario.bottleneck_b.clear();
  return scenario;
}

traffic::WorkloadSpec mesh_spec(std::uint64_t spec_seed) {
  traffic::WorkloadSpec spec;
  spec.flows = kFlows;
  spec.arrivals = traffic::ArrivalProcess::kPoisson;
  spec.arrival_rate_per_s = kArrivalRatePerS;
  spec.sizes = traffic::SizeDistribution::kBoundedPareto;
  spec.seed = spec_seed;
  return spec;
}

/// Offered segment-hops of a plan: each flow's size times its core path
/// length.
double plan_work(const traffic::Workload& workload) {
  double work = 0.0;
  for (const traffic::FlowPlan& flow : workload.plan()) {
    work += static_cast<double>(flow.size_segments) *
            static_cast<double>(flow.core_path.size());
  }
  return work;
}

/// Expected offered segment-hops: flows x the bounded-Pareto mean size x
/// the mean core path length over all host pairs.
double expected_work(const traffic::Workload& workload) {
  const traffic::WorkloadSpec& spec = workload.spec();
  const double a = spec.pareto_alpha;
  const auto l = static_cast<double>(spec.min_segments);
  const auto h = static_cast<double>(spec.max_segments);
  const double mean_size = std::pow(l, a) / (1.0 - std::pow(l / h, a)) * a /
                           (a - 1.0) *
                           (std::pow(l, 1.0 - a) - std::pow(h, 1.0 - a));
  const topo::Topology& topo = workload.scenario().topology;
  const std::vector<topo::NodeId> hosts =
      topo.nodes_of_kind(topo::NodeKind::kEdgeNode);
  double path_sum = 0.0;
  double pairs = 0.0;
  for (const topo::NodeId src : hosts) {
    for (const topo::NodeId dst : hosts) {
      if (src == dst) continue;
      path_sum +=
          static_cast<double>(topo::bfs_core_path(topo, src, dst).size());
      pairs += 1.0;
    }
  }
  return static_cast<double>(spec.flows) * mean_size * path_sum / pairs;
}

/// The first spec seed derived from `seed` whose plan carries the expected
/// work within kWorkTolerance. Not part of the timed setup: it only picks
/// the input.
std::uint64_t pick_spec_seed(std::uint64_t seed) {
  const topo::Scenario scenario = mesh_scenario();
  double expected = 0.0;
  for (std::uint64_t i = 0; i < kMaxCandidates; ++i) {
    const traffic::Workload candidate(scenario,
                                      mesh_spec(common::derive_seed(seed, i)));
    if (expected == 0.0) expected = expected_work(candidate);
    if (std::abs(plan_work(candidate) - expected) <=
        kWorkTolerance * expected) {
      return candidate.spec().seed;
    }
  }
  throw std::runtime_error("mesh_internet2: no plan of the stated size");
}

/// The setup: topology generation + Workload compile.
struct Compiled {
  std::unique_ptr<traffic::Workload> workload;
  double compile_s = 0.0;  ///< The Workload constructor alone.
};

Compiled compile(std::uint64_t spec_seed) {
  Compiled out;
  topo::Scenario scenario = mesh_scenario();
  const Clock::time_point t0 = Clock::now();
  out.workload = std::make_unique<traffic::Workload>(std::move(scenario),
                                                     mesh_spec(spec_seed));
  out.compile_s = seconds_since(t0);
  return out;
}

/// Workload::run() rebuilt from its public plan with the event-loop
/// profile attached: same network, same flows, same probes, so the packet
/// outcome must equal the untraced run's.
struct Replay {
  SimLayers layers;
  traffic::WorkloadResult result;
  std::size_t wide_routes = 0;
  std::size_t routes = 0;
};

Replay traced_replay(const traffic::Workload& workload) {
  Replay out;
  const Clock::time_point t0 = Clock::now();
  const traffic::WorkloadSpec& spec = workload.spec();
  const std::vector<traffic::FlowPlan>& plan = workload.plan();
  topo::Topology topology = workload.scenario().topology;
  const routing::Controller controller(topology);
  sim::Network net(topology, controller, {});
  transport::FlowDispatcher dispatcher(net);
  std::vector<std::unique_ptr<transport::BulkTransferFlow>> flows;
  flows.reserve(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const traffic::FlowPlan& p = plan[i];
    topo::ScenarioRoute forward;
    forward.src_edge = p.src_edge;
    forward.dst_edge = p.dst_edge;
    forward.core_path = p.core_path;
    topo::ScenarioRoute reverse;
    reverse.src_edge = p.dst_edge;
    reverse.dst_edge = p.src_edge;
    reverse.core_path.assign(p.core_path.rbegin(), p.core_path.rend());
    const routing::EncodedRoute fwd = controller.encode_scenario(
        forward, topo::ProtectionLevel::kUnprotected);
    const routing::EncodedRoute rev = controller.encode_scenario(
        reverse, topo::ProtectionLevel::kUnprotected);
    out.wide_routes +=
        (fwd.bit_length > 64 ? 1 : 0) + (rev.bit_length > 64 ? 1 : 0);
    out.routes += 2;
    transport::TcpParams tcp = spec.tcp;
    tcp.limit_segments = p.size_segments;
    auto flow = std::make_unique<transport::BulkTransferFlow>(
        net, dispatcher, fwd, rev, /*flow_id=*/i, tcp, spec.goodput_bin_s);
    flow->start_at(p.start_s);
    flow->stop_at(spec.horizon_s);
    flows.push_back(std::move(flow));
  }
  traffic::WorkloadResult& result = out.result;
  result.flows = plan.size();
  const auto probe = [&plan, &flows, &result](double t) {
    std::size_t active = 0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (plan[i].start_s <= t && !flows[i]->sender().complete()) ++active;
    }
    result.peak_concurrent = std::max(result.peak_concurrent, active);
  };
  const double probe_step = std::max(spec.goodput_bin_s, 1e-3);
  for (double t = probe_step; t < spec.horizon_s; t += probe_step) {
    net.events().schedule_at(t, [probe, t] { probe(t); });
  }
  for (const traffic::FlowPlan& p : plan) {
    const double t = p.start_s;
    net.events().schedule_at(t, [probe, t] { probe(t); });
  }
  out.layers.setup_s = seconds_since(t0);

  net.events().set_profile(&out.layers.profile);
  const std::uint64_t allocations_before = alloc_count();
  set_alloc_counting(true);
  const Clock::time_point t1 = Clock::now();
  out.layers.events = net.events().run_until(spec.horizon_s);
  out.layers.events += net.events().run_all();
  out.layers.loop_wall_s = seconds_since(t1);
  set_alloc_counting(false);
  out.layers.allocations = alloc_count() - allocations_before;
  net.events().set_profile(nullptr);

  for (const auto& flow : flows) {
    if (flow->sender().complete()) ++result.completed;
    result.segments_delivered += flow->receiver().stats().delivered_segments;
    result.retransmits += flow->sender().stats().retransmits;
  }
  result.counters = net.counters();
  out.layers.hops = net.counters().hops;
  out.layers.cache = net.residue_cache_stats();
  return out;
}

}  // namespace

Report run_mesh_internet2(const Options& options) {
  Report report;
  report.param("topology", kTopology);
  report.param("mode", "mesh");
  report.param("flows", kFlows);
  report.param("arrivals", "poisson");
  report.param("arrival_rate_per_s", kArrivalRatePerS);
  report.param("sizes", "bounded-pareto");

  const std::uint64_t spec_seed = pick_spec_seed(options.seed);
  report.param("spec_seed", spec_seed);
  const Compiled compiled = compile(spec_seed);
  std::vector<double> compile_s = {compiled.compile_s};
  std::vector<double> setup_s;
  const traffic::Workload& workload = *compiled.workload;

  std::vector<double> plain_wall_s;
  std::vector<double> wall_s;
  std::vector<traffic::WorkloadResult> plain;
  std::vector<double> traced_wall_s;
  std::vector<Replay> traced;
  const auto record = [&report](const traffic::WorkloadResult& result) {
    report.attempted += result.flows;
    report.failed += result.flows - result.completed;
    report.check(result.completed == result.flows,
                 std::to_string(result.flows - result.completed) +
                     " flows did not complete");
  };
  HostPace pace;
  repeat_for(options.seconds, options.trace ? 2 : 3, [&] {
    Clock::time_point t0 = Clock::now();
    plain.push_back(workload.run());
    plain_wall_s.push_back(seconds_since(t0));
    record(plain.back());
    const auto compile_once = [spec_seed, &compile_s] {
      compile_s.push_back(compile(spec_seed).compile_s);
    };
    if (!options.trace) {
      wall_s.push_back(pace.rescale(plain_wall_s.back()));
      setup_s.push_back(pace.rescale(per_call_s(compile_once)));
    } else {
      compile_once();
      t0 = Clock::now();
      traced.push_back(traced_replay(workload));
      traced_wall_s.push_back(seconds_since(t0));
      traced.back().layers.traced_wall_s = traced_wall_s.back();
      record(traced.back().result);
    }
  });

  const traffic::WorkloadResult& first = plain.front();
  for (const traffic::WorkloadResult& result : plain) {
    report.check(result.counters.hops == first.counters.hops &&
                     result.segments_delivered == first.segments_delivered &&
                     result.retransmits == first.retransmits,
                 "Workload::run results differ between runs of one seed");
  }
  report.witness("sim.hops", first.counters.hops);
  report.witness("delivered_segments", first.segments_delivered);
  report.witness("retransmits", first.retransmits);
  report.witness("traffic.peak_concurrent", first.peak_concurrent);

  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", median(wall_s), "s");
    report.samples.emplace_back("setup_s", setup_s);
    report.samples.emplace_back("wall_s", wall_s);
    report.samples.emplace_back("reference_s", pace.reference_s());
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return report;
  }

  for (const Replay& replay : traced) {
    const traffic::WorkloadResult& r = replay.result;
    report.check(r.counters.hops == first.counters.hops &&
                     r.segments_delivered == first.segments_delivered &&
                     r.retransmits == first.retransmits &&
                     r.peak_concurrent == first.peak_concurrent,
                 "traced replay differs from Workload::run");
    report.check(replay.layers.events == traced.front().layers.events &&
                     replay.layers.allocations ==
                         traced.front().layers.allocations,
                 "traced replays of one seed differ in events or allocations");
  }
  const Replay& chosen = median_item(
      traced, [](const Replay& replay) { return replay.layers.traced_wall_s; });
  report_sim_layers(report, chosen.layers);
  report.metric("rns.wide_route_share",
                static_cast<double>(chosen.wide_routes) /
                    static_cast<double>(chosen.routes),
                "share");
  report.metric("traffic.compile_s", median(compile_s), "s");
  report.metric("traffic.peak_concurrent",
                static_cast<double>(first.peak_concurrent), "count");
  report.metric("trace_overhead_s",
                median(traced_wall_s) - median(plain_wall_s), "s");
  return report;
}

}  // namespace kar::perfbench
