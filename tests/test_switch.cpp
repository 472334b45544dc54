#include "dataplane/switch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "routing/controller.hpp"
#include "topology/builders.hpp"

namespace kar::dataplane {
namespace {

using common::Rng;
using topo::Scenario;

struct Fig1Fixture : public ::testing::Test {
  Fig1Fixture()
      : scenario(topo::make_fig1_network()), controller(scenario.topology) {}

  Packet make_packet(std::uint64_t route_id) {
    Packet p;
    p.kar.route_id = rns::BigUint(route_id);
    p.dst_edge = scenario.topology.at("D");
    p.src_edge = scenario.topology.at("S");
    return p;
  }

  Scenario scenario;
  routing::Controller controller;
  Rng rng{7};
};

TEST_F(Fig1Fixture, ModuloForwardingFollowsPaperSteps) {
  // R = 44: SW4 -> port 0, SW7 -> port 2, SW11 -> port 0.
  const topo::Topology& t = scenario.topology;
  const Packet p = make_packet(44);
  for (const auto& [name, id, expected] :
       {std::tuple{"SW4", 4u, 0u}, {"SW7", 7u, 2u}, {"SW11", 11u, 0u}}) {
    const KarSwitch sw(t, t.at(name), DeflectionTechnique::kNone);
    EXPECT_EQ(sw.switch_id(), id);
    const auto decision = sw.forward(p, std::nullopt, rng);
    EXPECT_EQ(decision.action, ForwardDecision::Action::kForward) << name;
    EXPECT_EQ(decision.out_port, expected) << name;
    EXPECT_FALSE(decision.deflected);
  }
}

TEST_F(Fig1Fixture, ConstructionRejectsEdgeNodes) {
  EXPECT_THROW(KarSwitch(scenario.topology, scenario.topology.at("S"),
                         DeflectionTechnique::kNone),
               std::logic_error);
}

TEST_F(Fig1Fixture, NoDeflectionDropsOnFailedResiduePort) {
  topo::Topology& t = scenario.topology;
  t.fail_link("SW7", "SW11");
  const KarSwitch sw(t, t.at("SW7"), DeflectionTechnique::kNone);
  const auto decision = sw.forward(make_packet(44), 0, rng);
  EXPECT_EQ(decision.action, ForwardDecision::Action::kDrop);
  EXPECT_EQ(decision.drop_reason, DropReason::kNoViablePort);
}

TEST_F(Fig1Fixture, AvpDeflectsUniformlyOverAvailablePorts) {
  topo::Topology& t = scenario.topology;
  t.fail_link("SW7", "SW11");
  const KarSwitch sw(t, t.at("SW7"), DeflectionTechnique::kAnyValidPort);
  // Paper: "SW7 chooses between port 0 (SW4) or port 1 (SW5)".
  std::map<topo::PortIndex, int> counts;
  const Packet p = make_packet(660);
  for (int i = 0; i < 4000; ++i) {
    const auto decision = sw.forward(p, 0, rng);
    ASSERT_EQ(decision.action, ForwardDecision::Action::kForward);
    ASSERT_TRUE(decision.deflected);
    ++counts[decision.out_port];
  }
  ASSERT_EQ(counts.size(), 2u);      // ports 0 and 1 only (2 is down)
  EXPECT_GT(counts[0], 1800);        // ~50/50 split, generous tolerance
  EXPECT_GT(counts[1], 1800);
}

TEST_F(Fig1Fixture, NipNeverReturnsToInputPort) {
  topo::Topology& t = scenario.topology;
  t.fail_link("SW7", "SW11");
  const KarSwitch sw(t, t.at("SW7"), DeflectionTechnique::kNotInputPort);
  const Packet p = make_packet(660);
  for (int i = 0; i < 1000; ++i) {
    const auto decision = sw.forward(p, /*in_port=*/0, rng);
    ASSERT_EQ(decision.action, ForwardDecision::Action::kForward);
    EXPECT_EQ(decision.out_port, 1u);  // only SW5 remains
  }
}

TEST_F(Fig1Fixture, NipRejectsResidueEqualToInputPort) {
  // Craft a route ID whose residue at SW7 is the input port: residue 0 with
  // input port 0 must be rejected even though port 0 is healthy
  // (Algorithm 1: "or output = in_port").
  const topo::Topology& t = scenario.topology;
  const KarSwitch sw(t, t.at("SW7"), DeflectionTechnique::kNotInputPort);
  Packet p = make_packet(0);  // 0 mod 7 = 0
  std::map<topo::PortIndex, int> counts;
  for (int i = 0; i < 3000; ++i) {
    const auto decision = sw.forward(p, 0, rng);
    ASSERT_EQ(decision.action, ForwardDecision::Action::kForward);
    EXPECT_NE(decision.out_port, 0u);
    EXPECT_TRUE(decision.deflected);
    ++counts[decision.out_port];
  }
  EXPECT_EQ(counts.size(), 2u);  // ports 1 and 2
}

TEST_F(Fig1Fixture, AvpAcceptsResidueEqualToInputPort) {
  const topo::Topology& t = scenario.topology;
  const KarSwitch sw(t, t.at("SW7"), DeflectionTechnique::kAnyValidPort);
  const Packet p = make_packet(0);
  const auto decision = sw.forward(p, 0, rng);
  EXPECT_EQ(decision.action, ForwardDecision::Action::kForward);
  EXPECT_EQ(decision.out_port, 0u);  // AVP may bounce straight back
  EXPECT_FALSE(decision.deflected);
}

TEST_F(Fig1Fixture, HotPotatoMarksAndRandomWalks) {
  topo::Topology& t = scenario.topology;
  t.fail_link("SW7", "SW11");
  const KarSwitch sw(t, t.at("SW7"), DeflectionTechnique::kHotPotato);
  Packet p = make_packet(44);
  const auto first = sw.forward(p, 0, rng);
  ASSERT_EQ(first.action, ForwardDecision::Action::kForward);
  EXPECT_TRUE(first.deflected);
  EXPECT_TRUE(first.marked_hot_potato);
  // Once marked, the residue is ignored — even on a healthy switch whose
  // residue port is up.
  p.kar.deflected = true;
  t.repair_all();
  std::map<topo::PortIndex, int> counts;
  for (int i = 0; i < 3000; ++i) {
    const auto decision = sw.forward(p, 0, rng);
    ASSERT_EQ(decision.action, ForwardDecision::Action::kForward);
    EXPECT_TRUE(decision.deflected);
    ++counts[decision.out_port];
  }
  EXPECT_EQ(counts.size(), 3u);  // uniform over all three ports
}

TEST_F(Fig1Fixture, UnmarkedHotPotatoFollowsResidue) {
  const topo::Topology& t = scenario.topology;
  const KarSwitch sw(t, t.at("SW7"), DeflectionTechnique::kHotPotato);
  const auto decision = sw.forward(make_packet(44), 0, rng);
  EXPECT_EQ(decision.action, ForwardDecision::Action::kForward);
  EXPECT_EQ(decision.out_port, 2u);
  EXPECT_FALSE(decision.deflected);
}

TEST_F(Fig1Fixture, NipDropsWhenOnlyInputPortRemains) {
  // Isolate SW4 so its only healthy port is the input port.
  topo::Topology& t = scenario.topology;
  t.fail_link("SW4", "SW7");
  const KarSwitch sw(t, t.at("SW4"), DeflectionTechnique::kNotInputPort);
  // Input = port 1 (to S); the only other port (0, to SW7) is down.
  const auto decision = sw.forward(make_packet(44), 1, rng);
  EXPECT_EQ(decision.action, ForwardDecision::Action::kDrop);
  EXPECT_EQ(decision.drop_reason, DropReason::kNoViablePort);
}

TEST_F(Fig1Fixture, ResidueLargerThanPortCountDeflects) {
  // At SW11 (3 ports), residue 44 mod 11 = 0 is valid, but a route ID of
  // 7 gives 7 mod 11 = 7: not a port; AVP must deflect.
  const topo::Topology& t = scenario.topology;
  const KarSwitch sw(t, t.at("SW11"), DeflectionTechnique::kAnyValidPort);
  const auto decision = sw.forward(make_packet(7), 2, rng);
  EXPECT_EQ(decision.action, ForwardDecision::Action::kForward);
  EXPECT_TRUE(decision.deflected);
}

TEST(DeflectionTechnique, StringRoundTrip) {
  for (const auto technique :
       {DeflectionTechnique::kNone, DeflectionTechnique::kHotPotato,
        DeflectionTechnique::kAnyValidPort, DeflectionTechnique::kNotInputPort}) {
    EXPECT_EQ(technique_from_string(to_string(technique)), technique);
  }
  EXPECT_THROW(technique_from_string("bogus"), std::invalid_argument);
}

TEST(DeflectionTechnique, FromStringIsCaseInsensitive) {
  // Regression: "NIP" from a config file or CLI used to be rejected.
  EXPECT_EQ(technique_from_string("NIP"), DeflectionTechnique::kNotInputPort);
  EXPECT_EQ(technique_from_string("Nip"), DeflectionTechnique::kNotInputPort);
  EXPECT_EQ(technique_from_string("AVP"), DeflectionTechnique::kAnyValidPort);
  EXPECT_EQ(technique_from_string("Hp"), DeflectionTechnique::kHotPotato);
  EXPECT_EQ(technique_from_string("NONE"), DeflectionTechnique::kNone);
}

TEST(DeflectionTechnique, UnknownNameErrorListsTheOptions) {
  try {
    (void)technique_from_string("bogus");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("none|hp|avp|nip"), std::string::npos) << what;
  }
}

TEST_F(Fig1Fixture, FastResiduePathMatchesNaiveDecisionForDecision) {
  // forward() (residue_fast) and Algorithm 1 fed the naive residue,
  // decide(residue(...)), must make bit-identical decisions from identical
  // RNG streams. The naive side runs on a switch of its own so its memo
  // stays untouched.
  const topo::Topology& t = scenario.topology;
  const KarSwitch fast(t, t.at("SW7"), DeflectionTechnique::kNotInputPort);
  const KarSwitch naive(t, t.at("SW7"), DeflectionTechnique::kNotInputPort);
  Rng rng_fast{99};
  Rng rng_naive{99};
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t r : {0u, 1u, 7u, 44u, 660u, 123456u}) {
      const Packet p = make_packet(r);
      const auto a = fast.forward(p, 0, rng_fast);
      const auto b = naive.decide(naive.residue(p.kar.route_id), 0, rng_naive);
      EXPECT_EQ(a.action, b.action) << r;
      EXPECT_EQ(a.out_port, b.out_port) << r;
      EXPECT_EQ(a.deflected, b.deflected) << r;
    }
  }
  // Width gating: <= 64-bit routes reduce directly and never consult the
  // memo (the narrow-route fast-path regression fix).
  EXPECT_EQ(fast.residue_cache().stats().hits, 0u);
  EXPECT_EQ(fast.residue_cache().stats().misses, 0u);

  // Routes of 65-128 bits fit BigUint's inline limbs and reduce directly
  // too. Adding a multiple of the switch ID (7 << 62 or 7 << 125) widens
  // each route to 65 or 128 bits without changing its residue: decisions
  // match naive bit for bit, and the memo stays untouched.
  for (const std::size_t shift : {62u, 125u}) {
    for (std::uint64_t r : {0u, 1u, 7u, 44u, 660u, 123456u}) {
      Packet p = make_packet(r);
      p.kar.route_id += rns::BigUint(7) << shift;
      ASSERT_GT(p.kar.route_id.bit_length(), 64u);
      ASSERT_LE(p.kar.route_id.bit_length(), 128u);
      const auto a = fast.forward(p, 0, rng_fast);
      const auto b = naive.decide(naive.residue(p.kar.route_id), 0, rng_naive);
      EXPECT_EQ(a.action, b.action) << r << " << " << shift;
      EXPECT_EQ(a.out_port, b.out_port) << r << " << " << shift;
      EXPECT_EQ(a.deflected, b.deflected) << r << " << " << shift;
    }
  }
  EXPECT_EQ(fast.residue_cache().stats().hits, 0u);
  EXPECT_EQ(fast.residue_cache().stats().misses, 0u);

  // Routes wider than 128 bits do go through the memo; adding 7 << 200
  // widens the route without changing any residue, so decisions still
  // match naive bit for bit — and the second pass is answered from the
  // memo.
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits the memo
    for (std::uint64_t r : {0u, 1u, 7u, 44u, 660u, 123456u}) {
      Packet p = make_packet(r);
      p.kar.route_id += rns::BigUint(7) << 200;
      const auto a = fast.forward(p, 0, rng_fast);
      const auto b = naive.decide(naive.residue(p.kar.route_id), 0, rng_naive);
      EXPECT_EQ(a.action, b.action) << r;
      EXPECT_EQ(a.out_port, b.out_port) << r;
      EXPECT_EQ(a.deflected, b.deflected) << r;
    }
  }
  EXPECT_GT(fast.residue_cache().stats().hits, 0u);
  EXPECT_EQ(naive.residue_cache().stats().hits, 0u);
  EXPECT_EQ(naive.residue_cache().stats().misses, 0u);
}

TEST(ResidueCache, CountsHitsMissesAndServesCorrectResidues) {
  ResidueCache cache;
  const rns::PreparedMod mod(44);
  const rns::BigUint a(100);      // 100 mod 44 = 12
  const rns::BigUint b(1ULL << 40);
  EXPECT_EQ(cache.lookup(a, mod), 12u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.lookup(a, mod), 12u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.lookup(b, mod), (1ULL << 40) % 44);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.lookup(b, mod), (1ULL << 40) % 44);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.clear();
  EXPECT_EQ(cache.lookup(a, mod), 12u);  // still correct after clear
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ResidueCache, CapacityOneEvictsButNeverAliases) {
  // With a single slot every distinct route ID evicts the previous one;
  // the full-key compare means the answers stay exact regardless.
  ResidueCache cache(1);
  const rns::PreparedMod mod(7);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t value : {5u, 12u, 33u, 5u}) {
      EXPECT_EQ(cache.lookup(rns::BigUint(value), mod), value % 7)
          << "round " << round << " value " << value;
    }
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 12u);
}

TEST(ResidueCache, DigestCollisionsAreDetectedByFullKeyCompare) {
  // Force collisions structurally: capacity 1 maps every digest to slot 0,
  // so any two distinct keys collide. Wide multi-limb keys must still
  // never alias.
  ResidueCache cache(1);
  const rns::PreparedMod mod(26389);  // paper Table 1 unprotected width
  const rns::BigUint wide_a = (rns::BigUint(1) << 200) + rns::BigUint(17);
  const rns::BigUint wide_b = (rns::BigUint(1) << 200) + rns::BigUint(18);
  const auto expect_a = wide_a.mod_u64(26389);
  const auto expect_b = wide_b.mod_u64(26389);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.lookup(wide_a, mod), expect_a);
    EXPECT_EQ(cache.lookup(wide_b, mod), expect_b);
  }
}

}  // namespace
}  // namespace kar::dataplane
