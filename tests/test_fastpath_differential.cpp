// Differential suite for the forwarding fast paths: a network of switches
// running ResiduePath::kFast (width-gated PreparedMod reduction + memo)
// and a network forwarding in PacketBatches must both be observably
// indistinguishable, bit for bit, from the per-packet ResiduePath::kNaive
// reference (per-hop BigUint::mod_u64 long division).
//
// The determinism contract makes this a strong oracle: identical residues
// imply identical branch paths imply identical RNG consumption, so the
// full packet trace CSV — every event, timestamp and port — and all
// counters must match exactly. Any divergence anywhere in a run means a
// fast path computed a different residue, drew the RNG differently, or
// the batched simulator reordered an observable event.
//
// Coverage: fig1 / fig2 / rnp28 topologies x all four deflection
// techniques x seeds, each run a three-way comparison (per-packet naive,
// per-packet fast, batched fast) with a mid-route link failure + repair
// and burst traffic so batches really carry multiple packets; a widened
// (>64-bit route ID) variant keeps the residue memo in the loop now that
// narrow routes bypass it; a dedicated case lands a failure between
// batch staging and the sweep; plus campaign-level aggregate identity
// through the parallel runner at --jobs=1 and --jobs=4 and at --batch=32.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/switch.hpp"
#include "faultgen/campaign.hpp"
#include "routing/controller.hpp"
#include "runner/campaign_runner.hpp"
#include "sim/network.hpp"
#include "sim/trace_csv.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"
#include "topology/scenario.hpp"

namespace kar {
namespace {

using dataplane::DeflectionTechnique;
using dataplane::ResiduePath;

struct TracedRun {
  std::string trace;  ///< Full CSV trace + counters rendering.
  dataplane::ResidueCache::Stats cache;
  sim::Network::BatchPathStats batch;
};

std::string render_counters(const sim::NetworkCounters& c) {
  std::ostringstream out;
  out << "injected=" << c.injected << " delivered=" << c.delivered
      << " hops=" << c.hops << " deflections=" << c.deflections
      << " reencodes=" << c.reencodes << " bounces=" << c.bounces
      << " drops=" << c.total_drops();
  return out.str();
}

/// Adds (product of every switch ID in the topology) << 384 to a route ID:
/// the residue at every core switch is unchanged, but the ID no longer
/// fits 64 bits, so the kFast path goes through the ResidueCache memo
/// instead of the width-gated direct reduction.
void widen_route(const topo::Topology& topology, routing::EncodedRoute& route) {
  rns::BigUint product(1);
  for (const std::uint64_t sid : topology.all_switch_ids()) {
    product *= rns::BigUint(sid);
  }
  route.route_id += product << 384;
}

/// One seeded run: singles and bursts across a mid-route link failure +
/// repair, full trace captured. Everything (injection times, sizes,
/// failure window) derives from `seed`, so two calls differing only in
/// `residue_path` / `batch_size` / `widen` see byte-identical inputs.
TracedRun run_traced(const std::string& topology_name,
                     DeflectionTechnique technique, ResiduePath residue_path,
                     std::uint64_t seed, std::size_t batch_size = 0,
                     bool widen = false) {
  topo::Scenario s = faultgen::make_campaign_scenario(topology_name);
  const routing::Controller controller(s.topology);
  auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kPartial);
  if (widen) widen_route(s.topology, route);

  sim::NetworkConfig config;
  config.technique = technique;
  config.residue_path = residue_path;
  config.seed = common::derive_seed(seed, 1);
  config.batch_size = batch_size;
  sim::Network net(s.topology, controller, config);

  std::ostringstream out;
  sim::TraceCsvWriter writer(out);
  net.set_trace_hook(writer.hook(net));

  // Fail a primary-path core link mid-run so residues keep being computed
  // while deflection (and its RNG draws) is active, then repair it.
  common::Rng rng(common::derive_seed(seed, 2));
  const auto& core = s.route.core_path;
  const double fail_at = 0.001 + rng.uniform() * 0.005;
  const double repair_at = fail_at + 0.004 + rng.uniform() * 0.005;
  net.fail_link_at(fail_at, core[0], core[1]);
  net.repair_link_at(repair_at, core[0], core[1]);

  double time = 0.0;
  for (int i = 0; i < 4; ++i) {
    time += 1e-4 + rng.uniform() * 2e-3;
    const std::size_t bytes = 64 + rng.below(1200);
    net.events().schedule_at(time, [&net, &route, bytes] {
      dataplane::Packet p;
      p.transport = dataplane::Datagram{0};
      net.edge_at(route.src_edge).stamp(p, route, bytes);
      net.inject(route.src_edge, std::move(p));
    });
  }
  // Two bursts: the workload that actually fills PacketBatches (a burst's
  // packets all reach the ingress switch at the train's arrival instant).
  for (int b = 0; b < 2; ++b) {
    time += 1e-4 + rng.uniform() * 2e-3;
    const std::size_t bytes = 64 + rng.below(1200);
    net.events().schedule_at(time, [&net, &route, bytes] {
      std::vector<dataplane::Packet> burst(4);
      for (auto& p : burst) {
        p.transport = dataplane::Datagram{0};
        net.edge_at(route.src_edge).stamp(p, route, bytes);
      }
      net.inject_burst(route.src_edge, std::move(burst));
    });
  }
  net.events().run_all();
  EXPECT_EQ(net.packets_in_flight(), 0u)
      << "a delivered or dropped packet kept its pool slot";

  TracedRun result;
  result.trace = out.str() + render_counters(net.counters());
  result.cache = net.residue_cache_stats();
  result.batch = net.batch_stats();
  return result;
}

TEST(FastPathDifferential, TracesBitIdenticalAcrossTopologiesTechniquesSeeds) {
  const std::vector<std::string> topologies = {"fig1", "fig2", "rnp28"};
  const std::vector<DeflectionTechnique> techniques = {
      DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
      DeflectionTechnique::kAnyValidPort, DeflectionTechnique::kNotInputPort};
  const std::uint64_t base = testsupport::seed_or(20260807);

  std::uint64_t wide_fast_hits = 0;
  std::size_t max_batch_occupancy = 0;
  for (const auto& topology : topologies) {
    for (const auto technique : techniques) {
      // Seeds per combination; on mismatch fail fast with the full context
      // instead of flooding the log hundreds of times. Every fourth seed
      // re-runs the comparison with a widened (>64-bit) route ID.
      for (std::uint64_t i = 0; i < 12; ++i) {
        const std::uint64_t seed = common::derive_seed(base, i);
        const bool widen = (i % 4 == 0);
        const TracedRun naive =
            run_traced(topology, technique, ResiduePath::kNaive, seed,
                       /*batch_size=*/0, widen);
        const TracedRun fast =
            run_traced(topology, technique, ResiduePath::kFast, seed,
                       /*batch_size=*/0, widen);
        const TracedRun batched =
            run_traced(topology, technique, ResiduePath::kFast, seed,
                       /*batch_size=*/8, widen);
        ASSERT_EQ(fast.trace, naive.trace)
            << topology << " " << dataplane::to_string(technique) << " seed "
            << seed << " widen=" << widen;
        ASSERT_EQ(batched.trace, naive.trace)
            << topology << " " << dataplane::to_string(technique) << " seed "
            << seed << " widen=" << widen << " (batched vs naive)";
        // The naive path must never have touched a cache...
        ASSERT_EQ(naive.cache.hits + naive.cache.misses, 0u);
        // ...the per-packet paths must never have batched anything...
        ASSERT_EQ(naive.batch.staged + naive.batch.batches, 0u);
        ASSERT_EQ(fast.batch.staged + fast.batch.batches, 0u);
        // ...and the batched run must actually have batched.
        ASSERT_GT(batched.batch.staged, 0u)
            << topology << " " << dataplane::to_string(technique);
        ASSERT_GT(batched.batch.batches, 0u);
        if (widen) wide_fast_hits += fast.cache.hits;
        if (batched.batch.max_occupancy > max_batch_occupancy) {
          max_batch_occupancy = batched.batch.max_occupancy;
        }
      }
    }
  }
  // The widened runs must have exercised the residue memo (narrow routes
  // bypass it by design), or this test compared naive against itself...
  EXPECT_GT(wide_fast_hits, 0u);
  // ...and at least one sweep must have carried a real multi-packet batch.
  EXPECT_GT(max_batch_occupancy, 1u);
}

TEST(FastPathDifferential, FailureLandingMidBatchStaysByteIdentical) {
  // Exact-binary link parameters: every timestamp in this run is an exact
  // double, so the failure below can be scheduled at precisely the burst's
  // arrival instant. rate 2^30 b/s makes any whole-byte serialization time
  // a multiple of 2^-27 s; delay 2^-10 s is 131072 of those units.
  topo::LinkParams params;
  params.rate_bps = 1073741824.0;  // 2^30
  params.delay_s = 0.0009765625;   // 2^-10
  params.queue_packets = 100;

  for (const auto technique :
       {DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
        DeflectionTechnique::kAnyValidPort,
        DeflectionTechnique::kNotInputPort}) {
    constexpr std::size_t kBurst = 6;
    std::vector<std::string> traces;
    sim::Network::BatchPathStats batched_stats;
    for (const std::size_t batch_size : {std::size_t{0}, std::size_t{8}}) {
      topo::Scenario s = topo::make_fig1_network(params);
      const routing::Controller controller(s.topology);
      const auto route = controller.encode_scenario(
          s.route, topo::ProtectionLevel::kPartial);
      const auto link = s.topology.link_between(
          s.topology.at(s.route.core_path[0]),
          s.topology.at(s.route.core_path[1]));
      ASSERT_TRUE(link.has_value());

      sim::NetworkConfig config;
      config.technique = technique;
      config.seed = testsupport::seed_or(4242);
      config.batch_size = batch_size;
      sim::Network net(s.topology, controller, config);

      std::ostringstream out;
      sim::TraceCsvWriter writer(out);
      net.set_trace_hook(writer.hook(net));

      // Learn the stamped wire size, then replicate the uplink's timing
      // arithmetic operation for operation: the burst's arrival instant is
      // busy_until (the running tx-time sum) plus the propagation delay.
      auto make_stamped = [&] {
        dataplane::Packet p;
        p.transport = dataplane::Datagram{0};
        net.edge_at(route.src_edge).stamp(p, route, 64);
        return p;
      };
      const double tx_time = static_cast<double>(make_stamped().size_bytes) *
                             8.0 / params.rate_bps;
      double busy_until = 0.0;
      for (std::size_t i = 0; i < kBurst; ++i) busy_until += tx_time;
      const double arrival = busy_until + params.delay_s;

      net.events().schedule_at(0.0, [&] {
        std::vector<dataplane::Packet> burst;
        for (std::size_t i = 0; i < kBurst; ++i) {
          burst.push_back(make_stamped());
        }
        net.inject_burst(route.src_edge, std::move(burst));
      });
      // Scheduling the failure from a mid-run event gives it a sequence
      // number above the burst's arrival events: at `arrival` the whole
      // burst stages first, then the failure fires — landing between batch
      // staging and the sweep, exactly the race the cooperative flush
      // exists for. (In per-packet mode the arrivals simply forward first;
      // the observable order is identical.)
      net.events().schedule_at(arrival / 2, [&, id = *link] {
        net.events().schedule_at(arrival, [&net, id] { net.fail_link_now(id); });
      });
      // Repair well after, then a second burst proves the repaired path.
      net.events().schedule_at(arrival + 0.25, [&, id = *link] {
        net.repair_link_now(id);
        std::vector<dataplane::Packet> burst;
        for (std::size_t i = 0; i < kBurst; ++i) {
          burst.push_back(make_stamped());
        }
        net.inject_burst(route.src_edge, std::move(burst));
      });
      net.events().run_all();

      traces.push_back(out.str() + render_counters(net.counters()));
      if (batch_size > 0) batched_stats = net.batch_stats();
    }
    ASSERT_EQ(traces[0], traces[1])
        << "technique " << dataplane::to_string(technique);
    // The failure really did land on an open batch: the sweep was forced
    // by the link-state change, not by the same-instant flush event, and
    // it carried the whole burst.
    EXPECT_GE(batched_stats.state_flushes, 1u)
        << "technique " << dataplane::to_string(technique);
    EXPECT_EQ(batched_stats.max_occupancy, kBurst);
  }
}

TEST(FastPathDifferential, CampaignAggregatesIdenticalAtAnyJobs) {
  // The campaign engine sweeps failure schedules, shrinking and the
  // invariant checker over both residue paths; canonical_aggregates is the
  // runner's hexfloat rendering — equal strings iff bit-equal doubles.
  faultgen::CampaignConfig config;
  config.topology = "rnp28";
  config.technique = DeflectionTechnique::kNotInputPort;
  config.runs = 30;
  config.packets_per_run = 10;
  config.seed = testsupport::seed_or(303);

  config.residue_path = ResiduePath::kNaive;
  const faultgen::CampaignEngine naive_engine(config);
  const std::string reference =
      runner::canonical_aggregates(naive_engine.run());
  ASSERT_FALSE(reference.empty());

  config.residue_path = ResiduePath::kFast;
  const faultgen::CampaignEngine fast_engine(config);
  EXPECT_EQ(runner::canonical_aggregates(fast_engine.run()), reference);

  // The batched data plane folds into the same aggregates.
  config.batch_size = 32;
  const faultgen::CampaignEngine batched_engine(config);
  EXPECT_EQ(runner::canonical_aggregates(batched_engine.run()), reference);
  config.batch_size = 0;

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    runner::CampaignJobOptions options;
    options.runner.jobs = jobs;
    const auto result = runner::run_campaign(fast_engine, options, nullptr);
    EXPECT_EQ(runner::canonical_aggregates(result), reference)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace kar
