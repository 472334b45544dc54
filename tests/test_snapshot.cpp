// Snapshot/restore tests (src/daemon/snapshot.hpp):
//   * serialize → restore → re-serialize is byte-identical on fig1, fig2
//     and rnp28 with real churned stores (live, dead, withdrawn routes and
//     failed links in play);
//   * a restored store answers identically to the original (encodings,
//     versions, group structure) and keeps converging identically through
//     further churn;
//   * every malformation is rejected with a SnapshotError: truncation at
//     any prefix length, checksum corruption at any byte, bad magic, bad
//     format version, a topology-fingerprint mismatch, and trailing bytes;
//   * a committed format-1 fixture is refused by version and leaves the
//     store empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "daemon/snapshot.hpp"
#include "support/testsupport.hpp"
#include "topology/builders.hpp"

namespace kar {
namespace {

using ctrlplane::EngineConfig;
using ctrlplane::LinkChange;
using ctrlplane::ReconvergenceEngine;
using ctrlplane::RouteKey;
using ctrlplane::RouteStore;
using daemon::restore_store;
using daemon::serialize_store;
using daemon::SnapshotError;
using daemon::SnapshotInfo;

topo::Scenario scenario_for(const std::string& name) {
  topo::Scenario s;
  if (name == "fig1") {
    s = topo::make_fig1_network();
  } else if (name == "fig2") {
    s = topo::make_experimental15();
  } else {
    s = topo::make_rnp28();
  }
  (void)topo::attach_host_edges(s.topology);
  return s;
}

/// Builds a store with `routes` random routes, churns a few epochs (leaving
/// some links down so dead routes exist), withdraws a couple of keys.
struct Fixture {
  topo::Scenario scenario;
  RouteStore store;
  ReconvergenceEngine engine;

  explicit Fixture(const std::string& topology, std::size_t routes,
                   common::Rng& rng)
      : scenario(scenario_for(topology)),
        store(scenario.topology),
        engine(scenario.topology, store) {
    const auto edges =
        scenario.topology.nodes_of_kind(topo::NodeKind::kEdgeNode);
    std::vector<std::pair<topo::NodeId, topo::NodeId>> installs;
    for (std::size_t i = 0; i < routes; ++i) {
      const std::size_t si = rng.below(edges.size());
      std::size_t di = rng.below(edges.size() - 1);
      if (di >= si) ++di;
      installs.emplace_back(edges[si], edges[di]);
    }
    (void)engine.apply({}, installs, {});
    // Fail ~1/4 of the links (left down: snapshots must capture link state
    // and dead routes), then withdraw two routes.
    std::vector<LinkChange> events;
    for (topo::LinkId link = 0;
         link < static_cast<topo::LinkId>(scenario.topology.link_count());
         ++link) {
      if (rng.below(4) == 0) {
        scenario.topology.set_link_up(link, false);
        events.push_back({link, false});
      }
    }
    std::vector<RouteKey> withdraws;
    if (routes >= 2) withdraws = {0, routes / 2};
    (void)engine.apply(events, {}, withdraws);
  }

  [[nodiscard]] std::string bytes() const {
    return serialize_store(scenario.topology, store, engine.version());
  }
};

void expect_stores_equal(const RouteStore& a, const RouteStore& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.live_count(), b.live_count());
  EXPECT_EQ(a.withdrawn_count(), b.withdrawn_count());
  for (RouteKey key = 0; key < a.size(); ++key) {
    const auto& ra = a.get(key);
    const auto& rb = b.get(key);
    EXPECT_EQ(ra.src, rb.src);
    EXPECT_EQ(ra.dst, rb.dst);
    EXPECT_EQ(ra.group, rb.group) << "group structure differs at key " << key;
    EXPECT_EQ(ra.live, rb.live);
    EXPECT_EQ(ra.withdrawn, rb.withdrawn);
    EXPECT_EQ(ra.version, rb.version);
    if (ra.live && rb.live) {
      EXPECT_EQ(ra.core_path, rb.core_path);
      EXPECT_TRUE(ra.route.route_id == rb.route.route_id)
          << "route_id differs at key " << key;
      EXPECT_EQ(ra.route.bit_length, rb.route.bit_length);
      EXPECT_EQ(ra.route.primary_count, rb.route.primary_count);
      EXPECT_EQ(ra.route.assignments.size(), rb.route.assignments.size());
    }
  }
}

TEST(Snapshot, RoundTripIsByteIdenticalAcrossTopologies) {
  auto rng = testsupport::make_rng(7101, "Snapshot.RoundTrip");
  for (const std::string topology : {"fig1", "fig2", "rnp28"}) {
    Fixture fx(topology, 40, rng);
    const std::string bytes = fx.bytes();

    topo::Scenario fresh = scenario_for(topology);
    RouteStore restored(fresh.topology);
    const SnapshotInfo info =
        restore_store(bytes, fresh.topology, restored);
    EXPECT_EQ(info.engine_version, fx.engine.version());
    EXPECT_EQ(info.routes, fx.store.size());
    EXPECT_EQ(info.live, fx.store.live_count());
    EXPECT_EQ(info.withdrawn, fx.store.withdrawn_count());
    expect_stores_equal(fx.store, restored);

    // Link states round-trip.
    for (topo::LinkId link = 0;
         link < static_cast<topo::LinkId>(fresh.topology.link_count());
         ++link) {
      EXPECT_EQ(fresh.topology.link_up(link),
                fx.scenario.topology.link_up(link));
    }

    // The witness the e2e smoke relies on: re-serializing the restored
    // store reproduces the file byte for byte.
    EXPECT_EQ(serialize_store(fresh.topology, restored, info.engine_version),
              bytes)
        << topology << ": restore is not serialize^-1";
  }
}

TEST(Snapshot, RestoredEngineConvergesIdentically) {
  auto rng = testsupport::make_rng(7102, "Snapshot.RestoredEngine");
  Fixture fx("rnp28", 60, rng);
  const std::string bytes = fx.bytes();

  topo::Scenario fresh = scenario_for("rnp28");
  RouteStore restored(fresh.topology);
  const SnapshotInfo info = restore_store(bytes, fresh.topology, restored);
  ReconvergenceEngine engine(fresh.topology, restored);
  engine.restore_version(info.engine_version);
  engine.warm_spts();
  EXPECT_EQ(engine.version(), fx.engine.version());

  // Drive both engines through the same post-restore churn: repair every
  // failed link, then fail one more. Tables must stay identical.
  std::vector<LinkChange> repair;
  for (topo::LinkId link = 0;
       link < static_cast<topo::LinkId>(fresh.topology.link_count()); ++link) {
    if (!fresh.topology.link_up(link)) {
      fresh.topology.set_link_up(link, true);
      fx.scenario.topology.set_link_up(link, true);
      repair.push_back({link, true});
    }
  }
  const auto r1 = fx.engine.apply(repair);
  const auto r2 = engine.apply(repair);
  EXPECT_EQ(r1.version, r2.version);
  EXPECT_EQ(r1.changed, r2.changed);
  expect_stores_equal(fx.store, restored);
}

TEST(Snapshot, RejectsTruncationAtEveryBoundary) {
  auto rng = testsupport::make_rng(7103, "Snapshot.Truncation");
  Fixture fx("fig2", 12, rng);
  const std::string bytes = fx.bytes();
  // Every strict prefix must fail (checksum or truncation — never succeed,
  // never crash). Step keeps the loop fast while still crossing every
  // section boundary.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 37)) {
    topo::Scenario fresh = scenario_for("fig2");
    RouteStore restored(fresh.topology);
    EXPECT_THROW(
        (void)restore_store(std::string_view(bytes).substr(0, len),
                            fresh.topology, restored),
        SnapshotError)
        << "prefix of " << len << " bytes was accepted";
  }
}

TEST(Snapshot, RejectsBitCorruptionAnywhere) {
  auto rng = testsupport::make_rng(7104, "Snapshot.Corruption");
  Fixture fx("fig1", 6, rng);
  const std::string bytes = fx.bytes();
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = bytes;
    const std::size_t at = rng.below(corrupt.size());
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << rng.below(8)));
    topo::Scenario fresh = scenario_for("fig1");
    RouteStore restored(fresh.topology);
    EXPECT_THROW((void)restore_store(corrupt, fresh.topology, restored),
                 SnapshotError)
        << "bit flip at byte " << at << " was accepted";
  }
}

TEST(Snapshot, RejectsTrailingGarbage) {
  auto rng = testsupport::make_rng(7105, "Snapshot.Trailing");
  Fixture fx("fig1", 4, rng);
  std::string bytes = fx.bytes();
  bytes += '\0';
  topo::Scenario fresh = scenario_for("fig1");
  RouteStore restored(fresh.topology);
  EXPECT_THROW((void)restore_store(bytes, fresh.topology, restored),
               SnapshotError);
}

TEST(Snapshot, RejectsWrongTopologyFingerprint) {
  auto rng = testsupport::make_rng(7106, "Snapshot.Fingerprint");
  Fixture fx("fig2", 8, rng);
  const std::string bytes = fx.bytes();
  topo::Scenario other = scenario_for("rnp28");
  RouteStore restored(other.topology);
  EXPECT_THROW((void)restore_store(bytes, other.topology, restored),
               SnapshotError);
}

TEST(Snapshot, RejectsNonEmptyTargetStore) {
  auto rng = testsupport::make_rng(7107, "Snapshot.NonEmpty");
  Fixture fx("fig1", 4, rng);
  const std::string bytes = fx.bytes();
  topo::Scenario fresh = scenario_for("fig1");
  RouteStore occupied(fresh.topology);
  const auto edges = fresh.topology.nodes_of_kind(topo::NodeKind::kEdgeNode);
  (void)occupied.add(edges[0], edges[1]);
  EXPECT_THROW((void)restore_store(bytes, fresh.topology, occupied),
               std::invalid_argument);
}

// A format-1 snapshot (a full copy of the encoding per route), written by
// kard before route state moved into endpoint groups: it must be refused
// by version, before the store or the link states are touched.
TEST(Snapshot, RejectsFormatV1Fixture) {
  const std::string bytes = daemon::read_snapshot_file(
      KAR_TESTS_SOURCE_DIR "/fixtures/kard_fig1_v1.snap");
  topo::Scenario fresh = scenario_for("fig1");
  RouteStore restored(fresh.topology);
  try {
    (void)restore_store(bytes, fresh.topology, restored);
    FAIL() << "format-1 snapshot was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(restored.group_count(), 0u);
  for (topo::LinkId link = 0;
       link < static_cast<topo::LinkId>(fresh.topology.link_count()); ++link) {
    EXPECT_TRUE(fresh.topology.link_up(link));
  }
}

TEST(Snapshot, FingerprintIgnoresLinkStates) {
  topo::Scenario a = scenario_for("rnp28");
  topo::Scenario b = scenario_for("rnp28");
  b.topology.set_link_up(0, false);
  EXPECT_EQ(daemon::topology_fingerprint(a.topology),
            daemon::topology_fingerprint(b.topology));
  topo::Scenario c = scenario_for("fig2");
  EXPECT_NE(daemon::topology_fingerprint(a.topology),
            daemon::topology_fingerprint(c.topology));
}

TEST(Snapshot, FileRoundTripAndAtomicReplace) {
  auto rng = testsupport::make_rng(7108, "Snapshot.File");
  Fixture fx("fig2", 10, rng);
  const std::string bytes = fx.bytes();
  const std::string path =
      ::testing::TempDir() + "kar_test_snapshot.snap";
  daemon::write_snapshot_file(path, bytes);
  EXPECT_EQ(daemon::read_snapshot_file(path), bytes);
  // Overwrite with different content: the rename must fully replace.
  const std::string bytes2 = bytes;
  daemon::write_snapshot_file(path, bytes2);
  EXPECT_EQ(daemon::read_snapshot_file(path), bytes2);
  EXPECT_THROW((void)daemon::read_snapshot_file(path + ".does-not-exist"),
               std::runtime_error);
}

}  // namespace
}  // namespace kar
