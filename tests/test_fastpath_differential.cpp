// Differential suite for the forwarding fast path: a network of switches
// running ResiduePath::kFast (width-gated PreparedMod reduction + memo)
// must be observably indistinguishable, bit for bit, from the
// ResiduePath::kNaive reference (per-hop BigUint::mod_u64 long division).
//
// The determinism contract makes this a strong oracle: identical residues
// imply identical branch paths imply identical RNG consumption, so the
// full packet trace CSV — every event, timestamp and port — and all
// counters must match exactly. Any divergence anywhere in a run means the
// fast path computed a different residue or drew the RNG differently.
//
// Coverage: fig1 / fig2 / rnp28 topologies x all four deflection
// techniques x seeds, each run comparing naive against fast across a
// mid-route link failure + repair, with single packets and back-to-back
// trains; a widened (>64-bit route ID) variant keeps the residue memo in
// the loop now that narrow routes bypass it; plus campaign-level
// aggregate identity through the parallel runner at --jobs=1 and --jobs=4.
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

/// One seeded run: singles and trains across a mid-route link failure +
/// repair, full trace captured. Everything (injection times, sizes,
/// failure window) derives from `seed`, so two calls differing only in
/// `residue_path` / `widen` see byte-identical inputs.
TracedRun run_traced(const std::string& topology_name,
                     DeflectionTechnique technique, ResiduePath residue_path,
                     std::uint64_t seed, bool widen = false) {
  topo::Scenario s = faultgen::make_campaign_scenario(topology_name);
  const routing::Controller controller(s.topology);
  auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kPartial);
  if (widen) widen_route(s.topology, route);

  sim::NetworkConfig config;
  config.technique = technique;
  config.residue_path = residue_path;
  config.seed = common::derive_seed(seed, 1);
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
  // Two trains of four packets injected back to back in one event, so
  // they queue behind each other on the uplink.
  for (int b = 0; b < 2; ++b) {
    time += 1e-4 + rng.uniform() * 2e-3;
    const std::size_t bytes = 64 + rng.below(1200);
    net.events().schedule_at(time, [&net, &route, bytes] {
      for (int i = 0; i < 4; ++i) {
        dataplane::Packet p;
        p.transport = dataplane::Datagram{0};
        net.edge_at(route.src_edge).stamp(p, route, bytes);
        net.inject(route.src_edge, std::move(p));
      }
    });
  }
  net.events().run_all();
  EXPECT_EQ(net.packets_in_flight(), 0u)
      << "a delivered or dropped packet kept its pool slot";

  TracedRun result;
  result.trace = out.str() + render_counters(net.counters());
  result.cache = net.residue_cache_stats();
  return result;
}

TEST(FastPathDifferential, TracesBitIdenticalAcrossTopologiesTechniquesSeeds) {
  const std::vector<std::string> topologies = {"fig1", "fig2", "rnp28"};
  const std::vector<DeflectionTechnique> techniques = {
      DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
      DeflectionTechnique::kAnyValidPort, DeflectionTechnique::kNotInputPort};
  const std::uint64_t base = testsupport::seed_or(20260807);

  std::uint64_t wide_fast_hits = 0;
  for (const auto& topology : topologies) {
    for (const auto technique : techniques) {
      // Seeds per combination; on mismatch fail fast with the full context
      // instead of flooding the log hundreds of times. Every fourth seed
      // re-runs the comparison with a widened (>64-bit) route ID.
      for (std::uint64_t i = 0; i < 12; ++i) {
        const std::uint64_t seed = common::derive_seed(base, i);
        const bool widen = (i % 4 == 0);
        const TracedRun naive =
            run_traced(topology, technique, ResiduePath::kNaive, seed, widen);
        const TracedRun fast =
            run_traced(topology, technique, ResiduePath::kFast, seed, widen);
        ASSERT_EQ(fast.trace, naive.trace)
            << topology << " " << dataplane::to_string(technique) << " seed "
            << seed << " widen=" << widen;
        // The naive path must never have touched a cache.
        ASSERT_EQ(naive.cache.hits + naive.cache.misses, 0u);
        if (widen) wide_fast_hits += fast.cache.hits;
      }
    }
  }
  // The widened runs must have exercised the residue memo (narrow routes
  // bypass it by design), or this test compared naive against itself.
  EXPECT_GT(wide_fast_hits, 0u);
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
