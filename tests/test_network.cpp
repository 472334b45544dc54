#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "topology/builders.hpp"
#include "transport/udp.hpp"

namespace kar::sim {
namespace {

using dataplane::DeflectionTechnique;
using dataplane::Packet;
using topo::ProtectionLevel;
using topo::Scenario;

struct NetFixture : public ::testing::Test {
  NetFixture() : scenario(topo::make_fig1_network()), controller(scenario.topology) {}

  Network make_network(NetworkConfig config = {}) {
    return Network(scenario.topology, controller, config);
  }

  routing::EncodedRoute route(ProtectionLevel level) {
    return controller.encode_scenario(scenario.route, level);
  }

  Packet probe(const routing::EncodedRoute& r, Network& net, std::size_t bytes = 100) {
    Packet p;
    p.transport = dataplane::Datagram{0};
    net.edge_at(r.src_edge).stamp(p, r, bytes);
    return p;
  }

  Scenario scenario;
  routing::Controller controller;
};

TEST_F(NetFixture, DeliversAlongEncodedRoute) {
  Network net = make_network();
  const auto r = route(ProtectionLevel::kUnprotected);
  std::vector<std::uint64_t> delivered_hops;
  net.set_delivery_handler(r.dst_edge, [&](const Packet& p) {
    delivered_hops.push_back(p.hop_count);
  });
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  ASSERT_EQ(delivered_hops.size(), 1u);
  EXPECT_EQ(delivered_hops[0], 3u);  // SW4, SW7, SW11
  EXPECT_EQ(net.counters().delivered, 1u);
  EXPECT_EQ(net.counters().deflections, 0u);
  EXPECT_EQ(net.counters().total_drops(), 0u);
}

TEST_F(NetFixture, DeliveryLatencyMatchesStoreAndForwardModel) {
  NetworkConfig config;
  config.switch_latency_s = 0.0;
  Network net = make_network(config);
  const auto r = route(ProtectionLevel::kUnprotected);
  double delivered_at = -1;
  net.set_delivery_handler(r.dst_edge,
                           [&](const Packet&) { delivered_at = net.now(); });
  Packet p = probe(r, net, 1000 - dataplane::kBaseHeaderBytes - 2);
  const double tx = 1000.0 * 8 / 200e6;     // per-hop serialization (1000 B)
  const double expected = 4 * (tx + 0.5e-3);  // 4 links, default 0.5 ms delay
  net.inject(r.src_edge, std::move(p));
  net.events().run_all();
  EXPECT_NEAR(delivered_at, expected, 1e-9);
}

TEST_F(NetFixture, NoDeflectionDropsDuringFailure) {
  NetworkConfig config;
  config.technique = DeflectionTechnique::kNone;
  Network net = make_network(config);
  const auto r = route(ProtectionLevel::kUnprotected);
  net.fail_link_at(0.0, "SW7", "SW11");
  net.events().run_until(0.001);
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  EXPECT_EQ(net.counters().delivered, 0u);
  EXPECT_EQ(net.counters().drop_no_viable_port, 1u);
}

TEST_F(NetFixture, NipDeflectionRecoversViaProtectionPath) {
  NetworkConfig config;
  config.technique = DeflectionTechnique::kNotInputPort;
  Network net = make_network(config);
  const auto r = route(ProtectionLevel::kPartial);  // R = 660 with SW5
  net.fail_link_at(0.0, "SW7", "SW11");
  net.events().run_until(0.001);
  std::uint64_t hops = 0;
  net.set_delivery_handler(r.dst_edge,
                           [&](const Packet& p) { hops = p.hop_count; });
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  EXPECT_EQ(net.counters().delivered, 1u);
  // SW4 -> SW7 -> (deflect, but NIP excludes SW4) -> SW5 -> SW11: 4 hops.
  EXPECT_EQ(hops, 4u);
  EXPECT_EQ(net.counters().deflections, 1u);
}

TEST_F(NetFixture, InFlightPacketsDieWhenLinkFails) {
  NetworkConfig config;
  config.technique = DeflectionTechnique::kNone;
  Network net = make_network(config);
  const auto r = route(ProtectionLevel::kUnprotected);
  // Inject, then fail SW7-SW11 while the packet is still upstream of it.
  net.inject(r.src_edge, probe(r, net, 1200));
  net.fail_link_at(0.0005, "SW7", "SW11");  // mid-flight (prop delay 0.5ms/hop)
  net.events().run_all();
  EXPECT_EQ(net.counters().delivered, 0u);
  EXPECT_GE(net.counters().drop_link_failed + net.counters().drop_no_viable_port,
            1u);
}

TEST_F(NetFixture, RepairRestoresDelivery) {
  Network net = make_network();
  const auto r = route(ProtectionLevel::kUnprotected);
  net.fail_link_at(0.0, "SW7", "SW11");
  net.repair_link_at(1.0, "SW7", "SW11");
  std::uint64_t delivered = 0;
  net.set_delivery_handler(r.dst_edge, [&](const Packet&) { ++delivered; });
  net.events().run_until(2.0);
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  EXPECT_EQ(delivered, 1u);
}

TEST_F(NetFixture, ArrivalOvertakingADeadBacklogKeepsTimeOrder) {
  // A fail/repair resets the S->SW4 direction's busy_until below the
  // arrivals still in flight on it, so the next packet sent there arrives
  // before most of that dead backlog. Every event must still fire in time
  // order: each backlog packet dies at its own arrival instant.
  Scenario s = topo::make_fig1_network(
      topo::LinkParams{.rate_bps = 1e6, .delay_s = 1e-3, .queue_packets = 100});
  routing::Controller ctrl(s.topology);
  Network net(s.topology, ctrl, {});
  const topo::Topology& t = s.topology;
  const auto r = ctrl.encode_scenario(s.route, ProtectionLevel::kUnprotected);
  struct Seen {
    TraceEvent::Kind kind;
    std::uint64_t packet_id;
    topo::NodeId node;
    dataplane::DropReason reason;
    double time;
  };
  std::vector<Seen> seen;
  net.set_trace_hook([&](const TraceEvent& e) {
    seen.push_back(Seen{e.kind, e.packet_id, e.node,
                        e.kind == TraceEvent::Kind::kDrop
                            ? e.drop_reason
                            : dataplane::DropReason::kNoViablePort,
                        e.time});
  });
  const auto send = [&] {
    Packet p;
    p.transport = dataplane::Datagram{0};
    net.edge_at(r.src_edge).stamp(p, r, 1000);
    const double tx = static_cast<double>(p.size_bytes) * 8.0 / 1e6;
    net.inject(r.src_edge, std::move(p));
    return tx;
  };
  double tx = 0.0;
  for (int i = 0; i < 4; ++i) tx = send();  // backlog: arrivals k * tx + d
  net.fail_link_at(0.002, "S", "SW4");
  net.repair_link_at(0.003, "S", "SW4");
  net.events().run_until(0.003);
  send();  // arrives at 0.003 + tx + d: after the first dead arrival only
  net.events().run_all();

  using K = TraceEvent::Kind;
  const auto dead = dataplane::DropReason::kLinkFailed;
  const auto none = dataplane::DropReason::kNoViablePort;
  const double d = 1e-3;
  const double hop = 20e-6 + tx + d;  // switch latency, then the next link
  const double first = 0.003 + tx + d;
  const std::vector<Seen> expected = {
      {K::kInject, 1, t.at("S"), none, 0.0},
      {K::kInject, 2, t.at("S"), none, 0.0},
      {K::kInject, 3, t.at("S"), none, 0.0},
      {K::kInject, 4, t.at("S"), none, 0.0},
      {K::kInject, 5, t.at("S"), none, 0.003},
      {K::kDrop, 1, t.at("SW4"), dead, tx + d},
      {K::kHop, 5, t.at("SW4"), none, first},
      {K::kDrop, 2, t.at("SW4"), dead, 2 * tx + d},
      {K::kHop, 5, t.at("SW7"), none, first + hop},
      {K::kDrop, 3, t.at("SW4"), dead, 3 * tx + d},
      {K::kHop, 5, t.at("SW11"), none, first + 2 * hop},
      {K::kDrop, 4, t.at("SW4"), dead, 4 * tx + d},
      {K::kDeliver, 5, t.at("D"), none, first + 3 * hop},
  };
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(seen[i].kind, expected[i].kind);
    EXPECT_EQ(seen[i].packet_id, expected[i].packet_id);
    EXPECT_EQ(seen[i].node, expected[i].node);
    EXPECT_EQ(seen[i].reason, expected[i].reason);
    EXPECT_NEAR(seen[i].time, expected[i].time, 1e-12);
  }
  EXPECT_EQ(net.counters().drop_link_failed, 4u);
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST_F(NetFixture, QueueOverflowDropsExcessPackets) {
  // Shrink the queue on the S-SW4 uplink and flood it instantaneously.
  Scenario small = topo::make_fig1_network(
      topo::LinkParams{.rate_bps = 1e6, .delay_s = 1e-3, .queue_packets = 5});
  routing::Controller ctrl(small.topology);
  Network net(small.topology, ctrl, {});
  const auto r = ctrl.encode_scenario(small.route, ProtectionLevel::kUnprotected);
  for (int i = 0; i < 50; ++i) {
    Packet p;
    p.transport = dataplane::Datagram{static_cast<std::uint64_t>(i)};
    net.edge_at(r.src_edge).stamp(p, r, 1000);
    net.inject(r.src_edge, std::move(p));
  }
  net.events().run_all();
  EXPECT_GT(net.counters().drop_queue_overflow, 0u);
  EXPECT_LT(net.counters().delivered, 50u);
  EXPECT_EQ(net.counters().delivered + net.counters().total_drops(), 50u);
}

TEST_F(NetFixture, RedDropsEarlyBeforeQueueOverflow) {
  // Arm aggressive RED on a slow line and flood it: early drops must fire
  // while the drop-tail limit is never reached, every loss must be
  // accounted, and the run must stay seed-deterministic.
  const auto run = [](std::uint64_t seed) {
    Scenario s = topo::make_fig1_network(
        topo::LinkParams{.rate_bps = 1e6, .delay_s = 1e-3, .queue_packets = 100});
    for (topo::LinkId l = 0; l < s.topology.link_count(); ++l) {
      s.topology.link(l).params.red =
          topo::RedParams{.min_th = 2.0, .max_th = 8.0, .max_p = 0.5,
                          .weight = 0.2};
    }
    routing::Controller ctrl(s.topology);
    NetworkConfig config;
    config.seed = seed;
    Network net(s.topology, ctrl, config);
    const auto r = ctrl.encode_scenario(s.route, ProtectionLevel::kUnprotected);
    for (int i = 0; i < 80; ++i) {
      Packet p;
      p.transport = dataplane::Datagram{static_cast<std::uint64_t>(i)};
      net.edge_at(r.src_edge).stamp(p, r, 1000);
      net.inject(r.src_edge, std::move(p));
    }
    net.events().run_all();
    return net.counters();
  };
  const NetworkCounters counters = run(7);
  EXPECT_GT(counters.drop_aqm_early, 0u);
  EXPECT_EQ(counters.drop_queue_overflow, 0u);  // RED kicks in well below 100
  EXPECT_GT(counters.delivered, 0u);
  EXPECT_EQ(counters.delivered + counters.total_drops(), 80u);
  // Identical seed, identical drop pattern.
  EXPECT_EQ(run(7).drop_aqm_early, counters.drop_aqm_early);
}

TEST_F(NetFixture, RedAbsentMeansPureDropTail) {
  // Default links carry no RED config: flooding may overflow the queue,
  // but the AQM counter must stay exactly zero.
  Scenario s = topo::make_fig1_network(
      topo::LinkParams{.rate_bps = 1e6, .delay_s = 1e-3, .queue_packets = 5});
  routing::Controller ctrl(s.topology);
  Network net(s.topology, ctrl, {});
  const auto r = ctrl.encode_scenario(s.route, ProtectionLevel::kUnprotected);
  for (int i = 0; i < 50; ++i) {
    Packet p;
    p.transport = dataplane::Datagram{static_cast<std::uint64_t>(i)};
    net.edge_at(r.src_edge).stamp(p, r, 1000);
    net.inject(r.src_edge, std::move(p));
  }
  net.events().run_all();
  EXPECT_EQ(net.counters().drop_aqm_early, 0u);
  EXPECT_GT(net.counters().drop_queue_overflow, 0u);
}

TEST_F(NetFixture, TtlGuardsInfiniteWalks) {
  NetworkConfig config;
  config.technique = DeflectionTechnique::kAnyValidPort;
  config.max_hops = 16;
  config.wrong_edge_policy = dataplane::WrongEdgePolicy::kBounceBack;
  Network net = make_network(config);
  // Sever the destination entirely: SW11's links to D and SW5 and SW7 stay,
  // but fail both SW7-SW11 and SW5-SW11 so nothing reaches D; AVP then
  // ping-pongs forever — the TTL must reap the packet.
  const auto r = route(ProtectionLevel::kPartial);
  net.fail_link_at(0.0, "SW7", "SW11");
  net.fail_link_at(0.0, "SW5", "SW11");
  net.events().run_until(0.001);
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  EXPECT_EQ(net.counters().delivered, 0u);
  EXPECT_EQ(net.counters().drop_ttl, 1u);
}

TEST_F(NetFixture, DetectionDelayBlackholesUntilItFires) {
  NetworkConfig config;
  config.technique = DeflectionTechnique::kNotInputPort;
  config.failure_detection_delay_s = 0.050;
  Network net = make_network(config);
  const auto r = route(ProtectionLevel::kPartial);
  std::uint64_t delivered = 0;
  net.set_delivery_handler(r.dst_edge, [&](const Packet&) { ++delivered; });
  net.fail_link_at(1.0, "SW7", "SW11");
  // Probe during the undetected window: blackholed into the dead link.
  net.events().run_until(1.010);
  net.inject(r.src_edge, probe(r, net));
  net.events().run_until(1.049);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.counters().drop_link_failed, 1u);
  // After detection fires, deflection takes over.
  net.events().run_until(1.2);
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  EXPECT_EQ(delivered, 1u);
  EXPECT_GT(net.counters().deflections, 0u);
}

TEST_F(NetFixture, RepairRacingDetectionIsCancelled) {
  NetworkConfig config;
  config.failure_detection_delay_s = 0.100;
  Network net = make_network(config);
  const auto r = route(ProtectionLevel::kUnprotected);
  net.fail_link_at(1.0, "SW7", "SW11");
  net.repair_link_at(1.020, "SW7", "SW11");  // repaired before detection
  std::uint64_t delivered = 0;
  net.set_delivery_handler(r.dst_edge, [&](const Packet&) { ++delivered; });
  // Well after the (cancelled) detection would have fired: the link must
  // be up and traffic must flow on the primary path.
  net.events().run_until(1.5);
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(net.counters().deflections, 0u);
}

TEST_F(NetFixture, TraceHookSeesFullLifecycle) {
  Network net = make_network();
  const auto r = route(ProtectionLevel::kUnprotected);
  std::vector<TraceEvent::Kind> kinds;
  net.set_trace_hook([&](const TraceEvent& e) { kinds.push_back(e.kind); });
  net.inject(r.src_edge, probe(r, net));
  net.events().run_all();
  ASSERT_EQ(kinds.size(), 5u);  // inject + 3 hops + deliver
  EXPECT_EQ(kinds.front(), TraceEvent::Kind::kInject);
  EXPECT_EQ(kinds.back(), TraceEvent::Kind::kDeliver);
}

TEST_F(NetFixture, WrongEdgeReencodeCountsAndDelivers) {
  // Force a wrong-edge arrival: route to D but with a route ID whose
  // residue at SW4 points back at S. AVP follows the residue even into the
  // input port (NIP would refuse to forward back to S).
  NetworkConfig config;
  config.technique = DeflectionTechnique::kAnyValidPort;
  Network net = make_network(config);
  const topo::Topology& t = net.topology();
  Packet p;
  p.transport = dataplane::Datagram{0};
  // Residue at SW4 = 1 (port 1 = S). Any such value works: 1 mod 4.
  p.kar.route_id = rns::BigUint(1);
  p.src_edge = t.at("S");
  p.dst_edge = t.at("D");
  p.size_bytes = 200;
  net.inject(t.at("S"), std::move(p));
  net.events().run_all();
  EXPECT_EQ(net.counters().reencodes, 1u);
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST_F(NetFixture, InjectRejectsNonEdgeNodes) {
  Network net = make_network();
  Packet p;
  EXPECT_THROW(net.inject(net.topology().at("SW4"), std::move(p)),
               std::invalid_argument);
}

TEST_F(NetFixture, FailLinkAtRejectsNonAdjacent) {
  Network net = make_network();
  EXPECT_THROW(net.fail_link_at(0.0, "SW4", "SW5"), std::invalid_argument);
}

TEST_F(NetFixture, DeterministicAcrossIdenticalSeeds) {
  const auto run = [&](std::uint64_t seed) {
    Scenario fresh = topo::make_fig1_network();
    routing::Controller ctrl(fresh.topology);
    NetworkConfig config;
    config.technique = DeflectionTechnique::kHotPotato;
    config.seed = seed;
    Network net(fresh.topology, ctrl, config);
    const auto r = ctrl.encode_scenario(fresh.route, ProtectionLevel::kUnprotected);
    net.fail_link_at(0.0, "SW7", "SW11");
    net.events().run_until(0.001);
    std::uint64_t total_hops = 0;
    net.set_delivery_handler(r.dst_edge,
                             [&](const Packet& p) { total_hops += p.hop_count; });
    for (int i = 0; i < 20; ++i) {
      Packet p;
      p.transport = dataplane::Datagram{static_cast<std::uint64_t>(i)};
      net.edge_at(r.src_edge).stamp(p, r, 100);
      net.inject(r.src_edge, std::move(p));
    }
    net.events().run_all();
    return total_hops;
  };
  EXPECT_EQ(run(99), run(99));
  // Not a hard guarantee, but astronomically likely with random walks:
  EXPECT_NE(run(99), run(100));
}

TEST_F(NetFixture, ResetRestoresAFreshNetwork) {
  // A network left dirty (a detected failure, packets in flight, a pending
  // detection event, a trace hook) and reset to seed 5 must
  // then run exactly like a new network seeded 5.
  NetworkConfig config;
  config.technique = DeflectionTechnique::kHotPotato;
  config.failure_detection_delay_s = 0.0002;
  config.seed = 9;
  Network used = make_network(config);
  const auto r = route(ProtectionLevel::kPartial);
  std::size_t traced = 0;
  used.set_trace_hook([&traced](const TraceEvent&) { ++traced; });
  used.fail_link_at(0.0001, "SW7", "SW11");
  for (int i = 0; i < 5; ++i) used.inject(r.src_edge, probe(r, used));
  used.events().run_until(0.0004);
  ASSERT_GT(used.packets_in_flight(), 0u);
  const topo::LinkId failed = *scenario.topology.link_between(
      scenario.topology.at("SW7"), scenario.topology.at("SW11"));
  ASSERT_FALSE(scenario.topology.link_up(failed));
  used.reset(5);
  EXPECT_TRUE(scenario.topology.link_up(failed));
  const std::size_t traced_before_reset = traced;
  EXPECT_TRUE(used.events().empty());
  EXPECT_EQ(used.now(), 0.0);
  EXPECT_EQ(used.packets_in_flight(), 0u);
  EXPECT_EQ(used.counters().injected, 0u);
  EXPECT_EQ(used.config().seed, 5u);

  const auto drive = [](Network& net, const routing::EncodedRoute& route) {
    std::vector<std::uint64_t> hops;
    net.set_delivery_handler(route.dst_edge, [&hops](const Packet& p) {
      hops.push_back(p.hop_count);
    });
    net.fail_link_at(0.0, "SW7", "SW11");
    net.events().run_until(0.001);
    for (int i = 0; i < 20; ++i) {
      Packet p;
      p.transport = dataplane::Datagram{static_cast<std::uint64_t>(i)};
      net.edge_at(route.src_edge).stamp(p, route, 100);
      net.inject(route.src_edge, std::move(p));
    }
    net.events().run_all();
    hops.push_back(net.counters().deflections);
    hops.push_back(net.counters().total_drops());
    return hops;
  };
  Scenario other = topo::make_fig1_network();
  const routing::Controller other_controller(other.topology);
  config.seed = 5;
  Network fresh(other.topology, other_controller, config);
  const std::vector<std::uint64_t> reused = drive(used, r);
  EXPECT_EQ(reused, drive(fresh, other_controller.encode_scenario(
                                     other.route, ProtectionLevel::kPartial)));
  EXPECT_GT(reused[reused.size() - 2], 0u);  // the walks drew from the RNG
  EXPECT_EQ(traced, traced_before_reset);    // the old hook was dropped
}

}  // namespace
}  // namespace kar::sim
