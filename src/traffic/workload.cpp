#include "traffic/workload.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "routing/controller.hpp"
#include "stats/summary.hpp"
#include "topology/autoroute.hpp"
#include "topology/builders.hpp"
#include "transport/flows.hpp"

namespace kar::traffic {

using topo::LinkParams;
using topo::NodeId;

double exponential_interarrival(common::Rng& rng, double rate_per_s) {
  if (rate_per_s <= 0.0) {
    throw std::invalid_argument("exponential_interarrival: rate must be > 0");
  }
  // uniform() is in [0, 1); flip to (0, 1] so log() stays finite.
  return -std::log(1.0 - rng.uniform()) / rate_per_s;
}

std::uint64_t bounded_pareto(common::Rng& rng, double alpha,
                             std::uint64_t min_value,
                             std::uint64_t max_value) {
  if (alpha <= 0.0 || min_value == 0 || max_value < min_value) {
    throw std::invalid_argument("bounded_pareto: need alpha > 0 and 0 < min <= max");
  }
  if (min_value == max_value) return min_value;
  const double l = static_cast<double>(min_value);
  const double h = static_cast<double>(max_value);
  const double u = rng.uniform();
  // Inverse CDF of the Pareto truncated to [l, h].
  const double ratio = std::pow(l / h, alpha);
  const double x = l / std::pow(1.0 - u * (1.0 - ratio), 1.0 / alpha);
  return static_cast<std::uint64_t>(
      std::clamp(x, l, h));
}

namespace {

/// Sampled start times for `spec.flows` flows, ascending.
std::vector<double> sample_starts(const WorkloadSpec& spec, common::Rng& rng) {
  std::vector<double> starts;
  starts.reserve(spec.flows);
  if (spec.arrivals == ArrivalProcess::kUniform) {
    const double spacing = 1.0 / spec.arrival_rate_per_s;
    for (std::size_t i = 0; i < spec.flows; ++i) {
      starts.push_back(static_cast<double>(i) * spacing);
    }
  } else {
    double t = 0.0;
    for (std::size_t i = 0; i < spec.flows; ++i) {
      t += exponential_interarrival(rng, spec.arrival_rate_per_s);
      starts.push_back(t);
    }
  }
  return starts;
}

std::uint64_t sample_size(const WorkloadSpec& spec, common::Rng& rng) {
  if (spec.sizes == SizeDistribution::kFixed) return spec.fixed_segments;
  return bounded_pareto(rng, spec.pareto_alpha, spec.min_segments,
                        spec.max_segments);
}

/// Attaches one host edge named `name` to `sw`, enforcing the KAR port
/// constraint (every port index must stay below the switch ID).
NodeId attach_host(topo::Topology& topo, NodeId sw, const std::string& name,
                   const LinkParams& params) {
  if (static_cast<topo::SwitchId>(topo.port_count(sw)) >= topo.switch_id(sw)) {
    throw std::invalid_argument(
        "Workload: switch " + topo.name(sw) + " (ID " +
        std::to_string(topo.switch_id(sw)) +
        ") has no port headroom for another host edge; lower host_fan or "
        "regenerate the topology with more ID headroom");
  }
  const NodeId host = topo.add_edge_node(name);
  topo.add_link(sw, host, params);
  return host;
}

/// Host access links must never be the constrained hop: comfortably above
/// the fastest core link they feed.
LinkParams host_link_params(double core_rate_bps) {
  LinkParams params;
  params.rate_bps = std::max(core_rate_bps * 4.0, 1e9);
  params.delay_s = 0.05e-3;
  params.queue_packets = 256;
  return params;
}

}  // namespace

Workload::Workload(topo::Scenario scenario, WorkloadSpec spec)
    : scenario_(std::move(scenario)), spec_(std::move(spec)) {
  if (spec_.flows == 0) {
    throw std::invalid_argument("Workload: spec.flows must be positive");
  }
  if (spec_.host_fan == 0) {
    throw std::invalid_argument("Workload: spec.host_fan must be positive");
  }
  if (!scenario_.bottleneck_a.empty()) {
    compile_bottleneck();
  } else {
    compile_mesh();
  }
  // run()'s concurrency probe walks the plan in start order.
  if (!std::is_sorted(plan_.begin(), plan_.end(),
                      [](const FlowPlan& a, const FlowPlan& b) {
                        return a.start_s < b.start_s;
                      })) {
    throw std::logic_error("Workload: flow plan is not in start order");
  }
}

void Workload::compile_bottleneck() {
  topo::Topology& topo = scenario_.topology;
  const auto a = topo.find(scenario_.bottleneck_a);
  const auto b = topo.find(scenario_.bottleneck_b);
  if (!a || !b) {
    throw std::invalid_argument("Workload: scenario designates bottleneck " +
                                scenario_.bottleneck_a + "-" +
                                scenario_.bottleneck_b +
                                " but the nodes do not exist");
  }
  // The access links only need to outrun the *uncongested* trunks around
  // the bottleneck, which themselves are faster than the bottleneck link.
  double core_rate = 0.0;
  for (const auto& [port, next] : topo.neighbors(*a)) {
    (void)next;
    core_rate =
        std::max(core_rate, topo.link(topo.link_at(*a, port)).params.rate_bps);
  }
  const LinkParams access = host_link_params(core_rate);

  std::vector<std::string> src_hosts, dst_hosts;
  for (std::size_t i = 0; i < spec_.host_fan; ++i) {
    const std::string sname = "H-src" + std::to_string(i);
    const std::string dname = "H-dst" + std::to_string(i);
    (void)attach_host(topo, *a, sname, access);
    (void)attach_host(topo, *b, dname, access);
    src_hosts.push_back(sname);
    dst_hosts.push_back(dname);
  }

  common::Rng rng(spec_.seed);
  const std::vector<double> starts = sample_starts(spec_, rng);
  plan_.reserve(spec_.flows);
  for (std::size_t i = 0; i < spec_.flows; ++i) {
    FlowPlan flow;
    flow.start_s = starts[i];
    flow.size_segments = sample_size(spec_, rng);
    // Round-robin over the host fans: flows spread across access links but
    // all funnel through the one bottleneck hop.
    flow.src_edge = src_hosts[i % src_hosts.size()];
    flow.dst_edge = dst_hosts[(i / src_hosts.size()) % dst_hosts.size()];
    flow.core_path = {scenario_.bottleneck_a, scenario_.bottleneck_b};
    plan_.push_back(std::move(flow));
  }
}

void Workload::compile_mesh() {
  topo::Topology& topo = scenario_.topology;
  common::Rng rng(spec_.seed);
  // One host per eligible switch, then sample distinct pairs.
  const std::vector<NodeId> hosts =
      topo::attach_host_edges(topo, host_link_params(0.0));
  if (hosts.size() < 2) {
    throw std::invalid_argument(
        "Workload: topology has fewer than two switches with host headroom");
  }
  const std::vector<double> starts = sample_starts(spec_, rng);
  // One BFS tree per distinct source host, built when the source is first
  // drawn; it routes every flow from that source as bfs_core_path would.
  std::vector<std::vector<NodeId>> trees(topo.node_count());
  plan_.reserve(spec_.flows);
  for (std::size_t i = 0; i < spec_.flows; ++i) {
    FlowPlan flow;
    flow.start_s = starts[i];
    flow.size_segments = sample_size(spec_, rng);
    const NodeId src = hosts[rng.below(hosts.size())];
    NodeId dst = src;
    while (dst == src) dst = hosts[rng.below(hosts.size())];
    flow.src_edge = topo.name(src);
    flow.dst_edge = topo.name(dst);
    std::vector<NodeId>& tree = trees[src];
    if (tree.empty()) tree = topo::bfs_parents(topo, src);
    flow.core_path = topo::core_path_from(topo, tree, src, dst);
    plan_.push_back(std::move(flow));
  }
}

WorkloadResult Workload::run(sim::NetworkConfig config) const {
  // The network mutates link state in place; run on a private copy so the
  // compiled workload stays reusable.
  topo::Topology topology = scenario_.topology;
  const routing::Controller controller(topology);
  sim::Network net(topology, controller, config);
  transport::FlowDispatcher dispatcher(net);

  std::vector<std::unique_ptr<transport::BulkTransferFlow>> flows;
  flows.reserve(plan_.size());
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const FlowPlan& p = plan_[i];
    topo::ScenarioRoute forward;
    forward.src_edge = p.src_edge;
    forward.dst_edge = p.dst_edge;
    forward.core_path = p.core_path;
    topo::ScenarioRoute reverse;
    reverse.src_edge = p.dst_edge;
    reverse.dst_edge = p.src_edge;
    reverse.core_path.assign(p.core_path.rbegin(), p.core_path.rend());

    transport::TcpParams tcp = spec_.tcp;
    tcp.limit_segments = p.size_segments;
    auto flow = std::make_unique<transport::BulkTransferFlow>(
        net, dispatcher,
        controller.encode_scenario(forward, topo::ProtectionLevel::kUnprotected),
        controller.encode_scenario(reverse, topo::ProtectionLevel::kUnprotected),
        /*flow_id=*/i, tcp, spec_.goodput_bin_s);
    flow->start_at(p.start_s);
    flow->stop_at(spec_.horizon_s);
    flows.push_back(std::move(flow));
  }

  // Concurrency probes: one sample per goodput bin plus one at every flow
  // arrival (the arrival instants are where concurrency peaks during a fast
  // ramp; bin-aligned probes alone can miss the all-alive moment). Counts
  // flows that have started and are not yet fully ACKed. Probes consume no
  // randomness and do not perturb packet events. They fire in time order
  // and complete() never reverts, so `active` holds exactly those flows:
  // each probe appends the flows started since the last one (the plan is
  // in start order) and drops the ones that completed.
  WorkloadResult result;
  result.flows = plan_.size();
  std::vector<std::size_t> active;
  std::size_t next_start = 0;
  const auto probe = [this, &flows, &result, &active, &next_start](double t) {
    while (next_start < plan_.size() && plan_[next_start].start_s <= t) {
      active.push_back(next_start++);
    }
    std::erase_if(active, [&flows](std::size_t i) {
      return flows[i]->sender().complete();
    });
    result.peak_concurrent = std::max(result.peak_concurrent, active.size());
  };
  const double probe_step = std::max(spec_.goodput_bin_s, 1e-3);
  for (double t = probe_step; t < spec_.horizon_s; t += probe_step) {
    net.events().schedule_at(t, [probe, t] { probe(t); });
  }
  for (const FlowPlan& p : plan_) {
    const double t = p.start_s;
    net.events().schedule_at(t, [probe, t] { probe(t); });
  }

  (void)net.events().run_until(spec_.horizon_s);
  // Post-horizon: no new data is offered; drain retransmissions and ACKs.
  (void)net.events().run_all();

  result.sim_end_s = net.events().now();
  std::uint64_t segments_sent = 0;
  std::vector<double> fct_s;
  std::vector<double> goodput_mbps;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& flow = *flows[i];
    result.segments_delivered += flow.receiver().stats().delivered_segments;
    result.retransmits += flow.sender().stats().retransmits;
    segments_sent += flow.sender().stats().segments_sent;
    if (!flow.sender().complete()) continue;
    ++result.completed;
    const double fct = flow.sender().completion_time_s() - plan_[i].start_s;
    fct_s.push_back(fct);
    goodput_mbps.push_back(
        static_cast<double>(flow.receiver().stats().delivered_bytes) * 8.0 /
        fct / 1e6);
  }
  if (segments_sent > 0) {
    result.retransmit_share = static_cast<double>(result.retransmits) /
                              static_cast<double>(segments_sent);
  }
  if (!fct_s.empty()) {
    result.fct_p50_s = stats::percentile(fct_s, 50.0);
    result.fct_p99_s = stats::percentile(fct_s, 99.0);
    result.goodput_p50_mbps = stats::percentile(goodput_mbps, 50.0);
    result.goodput_p99_mbps = stats::percentile(goodput_mbps, 99.0);
  }
  result.counters = net.counters();
  return result;
}

}  // namespace kar::traffic
