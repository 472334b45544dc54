// Zero-allocation regression tests for the forwarding hot paths.
//
// A warmed forwarding decision — KarSwitch::forward on a narrow route, a
// memoized wide route, or a deflection draw — touches the heap exactly
// zero times. Likewise a warmed simulator hop (pooled packet, handler-free
// event, inline route ID, fixed SACK array) must not allocate. These tests
// replace the global operator new/delete with counting versions (routed
// through malloc/free) and assert the count stays at zero: across tens of
// thousands of decisions, for every deflection technique, with narrow
// routes, pre-memoized wide routes and a dead port forcing deflection
// draws in the mix; across >= 100k events of a
// window-limited TCP flow through sim::Network; and across hot-potato
// walkers that keep surfacing at a wrong edge, once each edge has
// re-encoded toward the destination; and across a walk of every node's
// neighbors, the inner loop of every graph search. A reconvergence epoch
// whose candidate groups all keep their paths allocates nothing per
// candidate (the held-path check walks the SPT in place) and nothing per
// SPT update (DynamicSpt reuses its scratch). The `kard` query path gets a
// budget rather than a zero: its answer is one string, and a std::promise
// costs two more.
//
// Registered under the `bench` and `sim` ctest labels: an allocation
// sneaking into the hot loop is a performance regression before it is
// anything else.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "daemon/daemon.hpp"
#include "dataplane/switch.hpp"
#include "routing/controller.hpp"
#include "sim/network.hpp"
#include "support/testsupport.hpp"
#include "topogen/topogen.hpp"
#include "topology/builders.hpp"
#include "transport/flows.hpp"

namespace {
// Counting is thread-local and off by default, so gtest internals and
// other threads never perturb the measurement window.
thread_local bool g_counting = false;
thread_local std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace kar::dataplane {
namespace {

TEST(ZeroAlloc, CountingHookActuallyCounts) {
  // Guard the guard: if the replacement operators were not linked in, the
  // main assertion below would pass vacuously.
  g_allocations = 0;
  g_counting = true;
  auto* p = new std::uint64_t[8];
  g_counting = false;
  delete[] p;
  EXPECT_GE(g_allocations, 1u);
}

TEST(ZeroAlloc, WarmedForwardLoopDoesNotTouchTheHeap) {
  topo::Scenario s = topo::make_fig1_network();
  const topo::NodeId sw7 = s.topology.at("SW7");
  // A dead port makes residues miss so deflection draws run in the loop.
  const auto dead = s.topology.link_at(sw7, 1);
  ASSERT_NE(dead, topo::kInvalidLink);
  s.topology.set_link_up(dead, false);

  // Workload: mostly narrow route IDs (width-gated direct reduction) plus
  // wide ones that go through the ResidueCache memo, one HP random-walk
  // packet, one no-input-port packet.
  constexpr std::size_t kPackets = 32;
  auto rng = testsupport::make_rng(20260809, "ZeroAlloc");
  std::vector<Packet> packets(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    packets[i].kar.route_id = rns::BigUint(rng.below(5000));
    if (i % 8 == 3) {
      packets[i].kar.route_id += rns::BigUint(7) << (128 + 64 * (i % 4));
    }
  }
  packets[5].kar.deflected = true;

  for (const auto technique :
       {DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
        DeflectionTechnique::kAnyValidPort,
        DeflectionTechnique::kNotInputPort}) {
    const KarSwitch sw(s.topology, sw7, technique);

    auto sweep = [&](common::Rng& draw) {
      std::uint64_t folded = 0;
      for (std::size_t i = 0; i < kPackets; ++i) {
        const std::optional<topo::PortIndex> in_port =
            i % 16 == 9 ? std::nullopt
                        : std::optional(static_cast<topo::PortIndex>(i % 3));
        const ForwardDecision decision = sw.forward(packets[i], in_port, draw);
        folded += static_cast<std::uint64_t>(decision.out_port) +
                  (decision.action == ForwardDecision::Action::kForward);
      }
      return folded;
    };

    // Warm-up: memoizes every wide route.
    common::Rng warm_rng(1);
    volatile std::uint64_t sink = sweep(warm_rng);

    common::Rng loop_rng(2);
    g_allocations = 0;
    g_counting = true;
    for (int iteration = 0; iteration < 2000; ++iteration) {
      sink = sink + sweep(loop_rng);
    }
    g_counting = false;
    EXPECT_EQ(g_allocations, 0u)
        << to_string(technique) << " allocated in the warmed forward loop";
  }
}

TEST(ZeroAlloc, WarmedSimulatorTcpFlowDoesNotTouchTheHeap) {
  // Paper Fig. 4 setting without the failure: one window-limited bulk TCP
  // flow over experimental15 with 1 Gb/s links. Nothing reorders, so the
  // receiver's reassembly buffer and the sender's SACK scoreboard stay
  // empty; every event is a link arrival, switch process, delivery or ACK.
  topo::Scenario s = topo::make_experimental15(
      topo::LinkParams{.rate_bps = 1e9, .delay_s = 0.6e-3, .queue_packets = 200});
  const routing::Controller controller(s.topology);
  sim::Network net(s.topology, controller);
  transport::FlowDispatcher dispatcher(net);
  topo::ScenarioRoute reverse_path;
  reverse_path.src_edge = s.route.dst_edge;
  reverse_path.dst_edge = s.route.src_edge;
  reverse_path.core_path = {"SW29", "SW31", "SW19", "SW11", "SW10"};
  transport::TcpParams params;
  params.receiver_window_segments = 128;
  transport::BulkTransferFlow flow(
      net, dispatcher,
      controller.encode_scenario(s.route, topo::ProtectionLevel::kPartial),
      controller.encode_scenario(reverse_path, topo::ProtectionLevel::kPartial),
      /*flow_id=*/1, params, /*goodput_bin_s=*/1.0);
  flow.start_at(0.0);

  // Warm-up: slow start reaches the 128-segment window, and the packet
  // pool, event heap, handler slab and RTT queue reach their steady size.
  // The measured window stays inside one goodput bin (1 s), so the binned
  // series does not grow either.
  net.events().run_until(1.1);
  ASSERT_GT(flow.receiver().stats().delivered_segments, 0u);
  g_allocations = 0;
  g_counting = true;
  const std::size_t events = net.events().run_until(1.9);
  g_counting = false;
  EXPECT_GE(events, 100000u);
  EXPECT_EQ(g_allocations, 0u)
      << g_allocations << " allocations over " << events << " events";
  EXPECT_EQ(flow.sender().stats().retransmits, 0u);
  EXPECT_EQ(flow.receiver().stats().out_of_order_segments, 0u);
}

TEST(ZeroAlloc, WarmedWrongEdgeReencodesDoNotTouchTheHeap) {
  // Hot-potato walkers around a failed core link keep surfacing at AS2 and
  // back at AS1; under kReencode each edge re-encodes toward AS3. Only the
  // first re-encode per (edge, destination) may allocate.
  topo::Scenario s = topo::make_experimental15();
  const routing::Controller controller(s.topology);
  sim::NetworkConfig config;
  config.technique = DeflectionTechnique::kHotPotato;
  config.wrong_edge_policy = WrongEdgePolicy::kReencode;
  config.seed = 77;
  sim::Network net(s.topology, controller, config);
  const auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kUnprotected);
  net.fail_link_now(*s.topology.link_between(s.topology.at("SW7"),
                                             s.topology.at("SW13")));
  // One packet at a time, so the queue and the pool stay at their warmed
  // size.
  const auto send = [&net, &route](int packets) {
    for (int i = 0; i < packets; ++i) {
      Packet p;
      p.transport = Datagram{static_cast<std::uint64_t>(i)};
      net.edge_at(route.src_edge).stamp(p, route, 100);
      net.inject(route.src_edge, std::move(p));
      net.events().run_all();
    }
  };

  send(200);
  const std::uint64_t warm_reencodes = net.counters().reencodes;
  ASSERT_GT(warm_reencodes, 0u);
  g_allocations = 0;
  g_counting = true;
  send(200);
  g_counting = false;
  EXPECT_GT(net.counters().reencodes, warm_reencodes);
  EXPECT_EQ(g_allocations, 0u)
      << g_allocations << " allocations over "
      << net.counters().reencodes - warm_reencodes << " re-encodes";
  EXPECT_EQ(net.counters().delivered, 400u);
}

TEST(ZeroAlloc, NeighborWalkDoesNotTouchTheHeap) {
  // Every graph walk (BFS, the SPTs, the route store's reindex) iterates
  // Topology::neighbors() once per visited node.
  const topo::Scenario s = topogen::make_from_spec("gen:internet2:scale=9");
  const topo::Topology& t = s.topology;
  std::size_t pairs = 0;
  std::uint64_t port_sum = 0;
  g_allocations = 0;
  g_counting = true;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    for (const auto& [port, next] : t.neighbors(n)) {
      ++pairs;
      port_sum += port + next;
    }
  }
  g_counting = false;
  EXPECT_EQ(g_allocations, 0u)
      << g_allocations << " allocations walking " << pairs << " ports";
  EXPECT_EQ(pairs, 2 * t.link_count());
  EXPECT_GT(port_sum, 0u);
}

/// rnp28 with one host edge per core switch, and an epoch in which every
/// core link fails and is repaired: it leaves every link up and every
/// distance where it was, so each candidate group keeps its path.
struct BounceFixture {
  topo::Scenario s = topo::make_rnp28();
  std::vector<topo::NodeId> hosts = topo::attach_host_edges(s.topology);
  std::vector<ctrlplane::LinkChange> bounce;

  BounceFixture() {
    const topo::Topology& t = s.topology;
    for (topo::LinkId link = 0; link < t.link_count(); ++link) {
      const topo::Link& l = t.link(link);
      if (t.kind(l.a.node) != topo::NodeKind::kCoreSwitch ||
          t.kind(l.b.node) != topo::NodeKind::kCoreSwitch) {
        continue;
      }
      bounce.push_back({link, false});
      bounce.push_back({link, true});
    }
  }

  struct Epoch {
    std::uint64_t allocations = 0;
    std::size_t candidates = 0;
    std::size_t changed = 0;
    std::size_t spt_dirty = 0;
  };

  /// Routes from the first `sources` hosts to the first `dsts` hosts, two
  /// warming bounces, then the allocations of a third.
  Epoch held_epoch(std::size_t sources, std::size_t dsts) {
    ctrlplane::RouteStore store(s.topology);
    ctrlplane::ReconvergenceEngine engine(s.topology, store);
    for (std::size_t i = 0; i < sources; ++i) {
      for (std::size_t j = 0; j < dsts; ++j) {
        if (i != j) (void)engine.add_route(hosts[i], hosts[j]);
      }
    }
    (void)engine.apply(bounce);  // warm: scratch capacity, posting lists
    (void)engine.apply(bounce);
    g_allocations = 0;
    g_counting = true;
    const ctrlplane::EpochResult result = engine.apply(bounce);
    g_counting = false;
    return Epoch{g_allocations, result.stats.candidates,
                 result.changed.size(), result.stats.spt_dirty};
  }
};

TEST(ZeroAlloc, HeldPathChecksDoNotTouchTheHeap) {
  // Two engines over the same destinations do the same SPT work but
  // examine different numbers of groups (2 sources vs all), so any
  // per-candidate allocation shows up as a difference between them.
  BounceFixture f;
  const auto few = f.held_epoch(2, f.hosts.size());
  const auto all = f.held_epoch(f.hosts.size(), f.hosts.size());
  EXPECT_EQ(few.changed, 0u);
  EXPECT_EQ(all.changed, 0u);
  EXPECT_GE(all.candidates, few.candidates + 500);
  EXPECT_EQ(all.allocations, few.allocations)
      << few.candidates << " candidates: " << few.allocations
      << " allocations; " << all.candidates << " candidates: "
      << all.allocations << " allocations";
}

TEST(ZeroAlloc, SptUpdatesDoNotTouchTheHeap) {
  // Two engines with one source each, toward 2 destinations vs all: the
  // second advances ~14x as many SPTs through every link event of the
  // bounce, so any allocation per SPT update (DynamicSpt's affected set,
  // parent-chain walk, improved set or heap) shows up as a difference.
  BounceFixture f;
  const auto few = f.held_epoch(1, 3);
  const auto all = f.held_epoch(1, f.hosts.size());
  EXPECT_EQ(few.changed, 0u);
  EXPECT_EQ(all.changed, 0u);
  EXPECT_GE(all.spt_dirty, few.spt_dirty + 1000);
  EXPECT_EQ(all.allocations, few.allocations)
      << few.spt_dirty << " dirty SPT nodes: " << few.allocations
      << " allocations; " << all.spt_dirty << " dirty SPT nodes: "
      << all.allocations << " allocations";
}

TEST(ZeroAlloc, WarmedKardQueryStaysWithinItsAllocationBudget) {
  // One answer string plus the promise's shared state and result: every
  // other part of a query — parse, store read, route-ID digits, escaping —
  // must stay off the heap. rnp28 with host edges gives 152-bit route IDs,
  // wider than BigUint's inline limbs.
  daemon::KardConfig config;
  config.topology = "rnp28";
  config.host_edges = true;
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();
  const topo::Topology& t = kard.topology();
  const std::vector<topo::NodeId> all_edges =
      t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  const std::vector<topo::NodeId> edges(all_edges.begin(),
                                        all_edges.begin() + 12);
  std::vector<std::future<std::string>> installs;
  for (const topo::NodeId src : edges) {
    for (const topo::NodeId dst : edges) {
      if (src == dst) continue;
      installs.push_back(
          kard.submit_line("install " + t.name(src) + ' ' + t.name(dst)));
    }
  }
  for (auto& f : installs) {
    ASSERT_EQ(f.get().rfind("{\"ok\":true", 0), 0u);
  }
  std::vector<std::string> lines;
  for (std::size_t key = 0; key < installs.size(); ++key) {
    lines.push_back("query " + std::to_string(key));
  }
  constexpr std::size_t kRequests = 4000;
  const auto run = [&] {
    std::size_t live = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      const std::string answer =
          kard.submit_line(lines[i % lines.size()]).get();
      live += answer.find("\"route_id\"") != std::string::npos;
    }
    return live;
  };
  (void)run();
  g_allocations = 0;
  g_counting = true;
  const std::size_t live = run();
  g_counting = false;
  kard.stop();
  EXPECT_EQ(live, kRequests);
  const double per_request =
      static_cast<double>(g_allocations) / static_cast<double>(kRequests);
  EXPECT_LE(per_request, 3.0) << g_allocations << " allocations over "
                              << kRequests << " queries";
}

}  // namespace
}  // namespace kar::dataplane
