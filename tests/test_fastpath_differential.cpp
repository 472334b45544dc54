// Differential suite for the forwarding fast path: every core switch runs
// KarSwitch::residue_fast (width-gated PreparedMod reduction + memo), and
// each run carries the campaign InvariantChecker, which re-derives every
// residue the naive way (BigUint::mod_u64, paper Eq. 3).
//
// The checker holds both halves of the decision to the naive residue: a
// hop that follows the residue must follow the naive one, and a switch
// may deflect (or, under kNone, drop) only where the naive residue names
// no usable port. So the first hop at which the fast residue differs in a
// way that changes the outcome is a violation; where both residues are
// unusable the branch and the RNG draws are the same. A run the checker
// passes is therefore exactly the run the naive residue would have made.
//
// Coverage: fig1 / fig2 / rnp28 topologies x all four deflection
// techniques x seeds, each run crossing a mid-route link failure + repair
// with single packets and back-to-back trains. Residue_fast has two paths,
// split by route width: every fourth seed widens the route ID past 128
// bits so the residue memo stays in the loop, and another fourth widens it
// to 65-128 bits, which reduce directly like narrow routes (on the
// topologies whose switch-ID product fits 128 bits); plus campaign-level
// aggregate identity, with no violations, through the parallel runner at
// --jobs=1 and --jobs=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/switch.hpp"
#include "faultgen/campaign.hpp"
#include "faultgen/invariants.hpp"
#include "routing/controller.hpp"
#include "runner/campaign_runner.hpp"
#include "sim/network.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"
#include "topology/scenario.hpp"

namespace kar {
namespace {

using dataplane::DeflectionTechnique;

struct CheckedRun {
  std::vector<faultgen::Violation> violations;
  std::size_t packets_in_flight = 0;
  sim::NetworkCounters counters;
  dataplane::ResidueCache::Stats cache;
};

/// How run_checked widens the encoded route ID.
enum class Widen : std::uint8_t {
  kNone,
  kInline,  ///< To 65-128 bits: still BigUint's inline limbs, reduced directly.
  kHeap,    ///< Past 128 bits: heap limbs, through the ResidueCache memo.
};

/// The product of every switch ID in the topology: adding a multiple of it
/// to a route ID leaves the residue at every core switch unchanged.
rns::BigUint switch_id_product(const topo::Topology& topology) {
  rns::BigUint product(1);
  for (const std::uint64_t sid : topology.all_switch_ids()) {
    product *= rns::BigUint(sid);
  }
  return product;
}

/// The multiple of the switch-ID product that widens a route to 65-128
/// bits: the product shifted up to 65 bits. Nullopt when the product
/// itself is wider than 127 bits, so that adding it could leave 128.
std::optional<rns::BigUint> inline_widening(const topo::Topology& topology) {
  const rns::BigUint product = switch_id_product(topology);
  if (product.bit_length() > 127) return std::nullopt;
  return product << (65 - std::min<std::size_t>(product.bit_length(), 65));
}

/// One seeded run: singles and trains across a mid-route link failure +
/// repair, with the invariant checker attached. Everything (injection
/// times, sizes, failure window) derives from `seed`.
CheckedRun run_checked(const std::string& topology_name,
                       DeflectionTechnique technique, std::uint64_t seed,
                       Widen widen = Widen::kNone) {
  topo::Scenario s = faultgen::make_campaign_scenario(topology_name);
  const routing::Controller controller(s.topology);
  auto route =
      controller.encode_scenario(s.route, topo::ProtectionLevel::kPartial);
  if (widen == Widen::kHeap) {
    route.route_id += switch_id_product(s.topology) << 384;
    EXPECT_FALSE(route.route_id.fits_inline());
  } else if (widen == Widen::kInline) {
    route.route_id += *inline_widening(s.topology);
    EXPECT_FALSE(route.route_id.fits_u64());
    EXPECT_TRUE(route.route_id.fits_inline());
  }

  sim::NetworkConfig config;
  config.technique = technique;
  config.seed = common::derive_seed(seed, 1);
  sim::Network net(s.topology, controller, config);

  faultgen::InvariantConfig checks;
  checks.max_hops = config.max_hops;
  checks.technique = technique;
  faultgen::InvariantChecker checker(net, checks);
  net.set_trace_hook(
      [&checker](const sim::TraceEvent& e) { checker.observe(e); });

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
  checker.finish(/*queue_drained=*/true);

  CheckedRun result;
  result.violations = checker.violations();
  result.packets_in_flight = net.packets_in_flight();
  result.counters = net.counters();
  result.cache = net.residue_cache_stats();
  return result;
}

TEST(FastPathDifferential, CheckerPassesEveryRunAcrossTopologiesTechniquesSeeds) {
  const std::vector<std::string> topologies = {"fig1", "fig2", "rnp28"};
  const std::vector<DeflectionTechnique> techniques = {
      DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
      DeflectionTechnique::kAnyValidPort, DeflectionTechnique::kNotInputPort};
  const std::uint64_t base = testsupport::seed_or(20260807);

  std::uint64_t wide_hits = 0;
  std::uint64_t inline_wide_hops = 0;
  std::uint64_t deflections = 0;
  std::uint64_t no_viable_port_drops = 0;
  for (const auto& topology : topologies) {
    const bool inline_fits =
        inline_widening(faultgen::make_campaign_scenario(topology).topology)
            .has_value();
    for (const auto technique : techniques) {
      // Seeds per combination; on a violation fail fast with the full
      // context instead of flooding the log hundreds of times.
      for (std::uint64_t i = 0; i < 12; ++i) {
        const std::uint64_t seed = common::derive_seed(base, i);
        const Widen widen = i % 4 == 0                 ? Widen::kHeap
                            : i % 4 == 2 && inline_fits ? Widen::kInline
                                                        : Widen::kNone;
        const CheckedRun run = run_checked(topology, technique, seed, widen);
        ASSERT_TRUE(run.violations.empty())
            << topology << " " << dataplane::to_string(technique) << " seed "
            << seed << " widen=" << static_cast<int>(widen) << ": "
            << faultgen::to_string(run.violations.front().kind) << " — "
            << run.violations.front().detail;
        ASSERT_EQ(run.packets_in_flight, 0u)
            << "a delivered or dropped packet kept its pool slot";
        if (widen == Widen::kHeap) wide_hits += run.cache.hits;
        if (widen == Widen::kInline) {
          // 65-128-bit routes reduce directly: the memo stays untouched.
          EXPECT_EQ(run.cache.hits + run.cache.misses, 0u) << topology;
          inline_wide_hops += run.counters.hops;
        }
        deflections += run.counters.deflections;
        if (technique == DeflectionTechnique::kNone) {
          no_viable_port_drops += run.counters.drop_no_viable_port;
        }
      }
    }
  }
  // The runs widened past 128 bits must have exercised the residue memo
  // (narrower routes bypass it by design), the 65-128-bit runs must have
  // had hops for the checker to judge on the direct path, and both halves
  // of the residue check must have had something to judge.
  EXPECT_GT(wide_hits, 0u);
  EXPECT_GT(inline_wide_hops, 0u);
  EXPECT_GT(deflections, 0u);
  EXPECT_GT(no_viable_port_drops, 0u);
}

TEST(FastPathDifferential, CampaignAggregatesIdenticalAtAnyJobs) {
  // The campaign engine sweeps failure schedules, shrinking and the
  // invariant checker; canonical_aggregates is the runner's hexfloat
  // rendering — equal strings iff bit-equal doubles.
  faultgen::CampaignConfig config;
  config.topology = "rnp28";
  config.technique = DeflectionTechnique::kNotInputPort;
  config.runs = 30;
  config.packets_per_run = 10;
  config.seed = testsupport::seed_or(303);

  const faultgen::CampaignEngine engine(config);
  const faultgen::CampaignResult serial = engine.run();
  EXPECT_TRUE(serial.ok()) << serial.reports.front().first.detail;
  const std::string reference = runner::canonical_aggregates(serial);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    runner::CampaignJobOptions options;
    options.runner.jobs = jobs;
    const auto result = runner::run_campaign(engine, options, nullptr);
    EXPECT_TRUE(result.ok()) << "jobs=" << jobs;
    EXPECT_EQ(runner::canonical_aggregates(result), reference)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace kar
