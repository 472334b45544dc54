// Differential test: KAR residue forwarding vs the OpenFlow fast-failover
// FIB baseline on the 15-node experimental network (paper Fig. 2), no
// failures. Both data planes receive an identical seeded trace of packets;
// with the network healthy they must agree exactly — same delivery set,
// same per-packet hop counts, zero deflections. Any divergence means one
// of the two forwarding implementations deviates from the shortest path.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "routing/controller.hpp"
#include "routing/failover_install.hpp"
#include "sim/network.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

/// One injected packet of the shared trace.
struct TracePacket {
  double time = 0.0;
  std::size_t payload_bytes = 0;
};

/// Delivery observations keyed by packet id.
struct RunObservation {
  std::map<std::uint64_t, std::uint32_t> hops_by_packet;
  sim::NetworkCounters counters;
};

std::vector<TracePacket> make_trace(common::Rng& rng, std::size_t count) {
  std::vector<TracePacket> trace;
  double time = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    time += 1e-4 + rng.uniform() * 1e-3;
    trace.push_back({time, 64 + rng.below(1300)});
  }
  return trace;
}

/// Runs the shared trace through a fresh scenario, on the KAR switches or
/// (`failover`) on installed fast-failover tables, and reports what got
/// delivered and in how many hops.
RunObservation run_trace(bool failover, const std::vector<TracePacket>& trace) {
  topo::Scenario s = topo::make_experimental15();
  const routing::Controller controller(s.topology);
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kUnprotected);

  routing::FailoverFib fib;
  sim::NetworkConfig config;
  if (failover) {
    fib = routing::install_failover_fibs(s.topology);
    config.failover_fib = &fib;
  }
  sim::Network net(s.topology, controller, config);

  RunObservation observation;
  net.set_delivery_handler(route.dst_edge, [&](const dataplane::Packet& p) {
    observation.hops_by_packet[p.packet_id] = p.hop_count;
  });

  std::uint64_t next_packet_id = 1;
  for (const TracePacket& entry : trace) {
    net.events().schedule_at(entry.time, [&net, &route, &next_packet_id, entry] {
      dataplane::Packet p;
      p.transport = dataplane::Datagram{0};
      p.packet_id = next_packet_id++;
      net.edge_at(route.src_edge).stamp(p, route, entry.payload_bytes);
      net.inject(route.src_edge, std::move(p));
    });
  }
  net.events().run_all();
  observation.counters = net.counters();
  return observation;
}

TEST(DifferentialForwarding, KarMatchesFailoverFibOnHealthyFig2) {
  auto rng = testsupport::make_rng(20260807, "DifferentialTrace");
  const auto trace = make_trace(rng, 120);

  const RunObservation kar = run_trace(/*failover=*/false, trace);
  const RunObservation fib = run_trace(/*failover=*/true, trace);

  // Everything injected must arrive: the network is healthy.
  EXPECT_EQ(kar.counters.injected, trace.size());
  EXPECT_EQ(fib.counters.injected, trace.size());
  EXPECT_EQ(kar.counters.delivered, trace.size());
  EXPECT_EQ(fib.counters.delivered, trace.size());
  EXPECT_EQ(kar.counters.total_drops(), 0u);
  EXPECT_EQ(fib.counters.total_drops(), 0u);

  // Identical delivery sets and identical per-packet hop counts. On Fig. 2
  // AS1 -> AS3 every shortest path is 4 core hops (SW10-SW7-SW13-SW29 or
  // the equal-length SW10-SW17-SW43-SW29), so even if the FIB picked the
  // alternate the hop counts still have to agree.
  ASSERT_EQ(kar.hops_by_packet.size(), trace.size());
  EXPECT_EQ(kar.hops_by_packet, fib.hops_by_packet);
  for (const auto& [packet_id, hops] : kar.hops_by_packet) {
    EXPECT_EQ(hops, 4u) << "packet " << packet_id;
  }

  // No failures: neither plane may deviate from its primary choice.
  EXPECT_EQ(kar.counters.deflections, 0u);
  EXPECT_EQ(fib.counters.deflections, 0u);
  EXPECT_EQ(kar.counters.hops, fib.counters.hops);
}

TEST(DifferentialForwarding, AgreementHoldsAcrossSeeds) {
  for (const std::uint64_t seed : {11ULL, 29ULL, 31ULL}) {
    auto rng = testsupport::make_rng(seed, "DifferentialTraceSweep");
    const auto trace = make_trace(rng, 40);
    const RunObservation kar = run_trace(/*failover=*/false, trace);
    const RunObservation fib = run_trace(/*failover=*/true, trace);
    EXPECT_EQ(kar.hops_by_packet, fib.hops_by_packet) << "seed " << seed;
    EXPECT_EQ(kar.counters.delivered, trace.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace kar
