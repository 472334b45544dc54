// Golden transcript of the kard request surface over one seeded mixed
// sequence: route admissions into new, existing and dead endpoint groups,
// withdrawals (including a duplicate and an unknown key), host-uplink and
// core-link failures and repairs, each batch followed by a `query` of
// every key. The responses are committed under tests/golden/ and must
// stay byte-identical: every field of a query (liveness, tombstone,
// version, route ID, path) is observable to clients, so any change to how
// the store keeps route state must leave this file untouched.
//
// Batches are deterministic: the daemon flushes when exactly kBatch
// mutations are pending (the flush timer is far away), so every batch is
// one engine epoch whatever the thread timing.
//
// Regenerate (review the diff, do not regenerate blindly):
//   KAR_UPDATE_GOLDEN=1 ./build/tests/test_daemon_golden
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "topology/graph.hpp"

namespace kar {
namespace {

constexpr std::size_t kBatch = 6;

const char* golden_path() {
  return KAR_TESTS_SOURCE_DIR "/golden/kard_mixed_queries.txt";
}

class Session {
 public:
  Session() {
    daemon::KardConfig config;
    config.topology = "rnp28";
    config.host_edges = true;
    config.flush_max_ops = kBatch;
    config.flush_interval_s = 60.0;
    config.compact_every_epochs = 2;
    config.snapshot_on_shutdown = false;
    config.metrics = false;
    kard_ = std::make_unique<daemon::Kard>(config);
    kard_->start();
  }
  ~Session() { kard_->stop(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const topo::Topology& topology() const { return kard_->topology(); }

  /// Submits one batch of exactly kBatch mutations (one epoch) and records
  /// every response in submission order.
  void batch(const std::vector<std::string>& lines) {
    ASSERT_EQ(lines.size(), kBatch);
    std::vector<std::future<std::string>> futures;
    for (const std::string& line : lines) {
      futures.push_back(kard_->submit_line(line));
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string response = futures[i].get();
      if (lines[i].rfind("install ", 0) == 0 &&
          response.rfind("{\"ok\":true", 0) == 0) {
        ++routes_;
      }
      out_ << "> " << lines[i] << '\n' << response << '\n';
    }
  }

  /// Queries every key (plus one past the end) and records the answers.
  void query_all() {
    for (std::size_t key = 0; key <= routes_; ++key) {
      const std::string line = "query " + std::to_string(key);
      out_ << "> " << line << '\n' << kard_->execute_line(line) << '\n';
    }
  }

  [[nodiscard]] std::size_t routes() const { return routes_; }
  [[nodiscard]] std::string transcript() const { return out_.str(); }

 private:
  std::unique_ptr<daemon::Kard> kard_;
  std::ostringstream out_;
  std::size_t routes_ = 0;
};

std::string run_sequence() {
  Session session;
  const topo::Topology& t = session.topology();
  const std::vector<topo::NodeId> all_edges =
      t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  // A small endpoint pool, so most admissions land in existing groups.
  const std::vector<topo::NodeId> edges(all_edges.begin(),
                                        all_edges.begin() + 6);
  const topo::NodeId stranded = edges[0];
  const topo::NodeId uplink_switch = (*t.neighbors(stranded).begin()).second;
  const std::string uplink = t.name(stranded) + ' ' + t.name(uplink_switch);
  // A core link on the stranded edge's switch, so its failure moves paths.
  std::string core_link;
  for (const auto& [port, next] : t.neighbors(uplink_switch)) {
    (void)port;
    if (t.kind(next) == topo::NodeKind::kCoreSwitch) {
      core_link = t.name(uplink_switch) + ' ' + t.name(next);
      break;
    }
  }

  common::Rng rng(0x901de7ULL);
  const auto install = [&](std::size_t si, std::size_t di) {
    return "install " + t.name(edges[si]) + ' ' + t.name(edges[di]);
  };
  const auto random_install = [&] {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;
    return install(si, di);
  };
  const auto withdraw = [](std::size_t key) {
    return "withdraw " + std::to_string(key);
  };

  // Preload: five epochs of admissions over the pool, the stranded edge
  // paired only with edge 1 so that (0, 2) stays a fresh pair.
  for (std::size_t b = 0; b < 5; ++b) {
    std::vector<std::string> lines;
    lines.push_back(install(0, 1));
    while (lines.size() < kBatch) {
      std::string line = random_install();
      if (line.find(' ' + t.name(stranded)) != std::string::npos) continue;
      lines.push_back(line);
    }
    session.batch(lines);
  }
  session.query_all();

  // The stranded edge loses its only uplink: its groups die. Admissions in
  // the same epoch join an existing dead group (0 -> 1), open a new dead
  // group (0 -> 2) and a live one; key 3 is withdrawn.
  session.batch({"link-down " + uplink, install(0, 1), install(0, 2),
                 random_install(), withdraw(3), withdraw(0)});
  session.query_all();

  // A core failure next door reroutes live groups, withdrawn members
  // included; the admissions of the previous epoch are withdrawn again
  // (one of them twice) and an unknown key is refused.
  const std::size_t last = session.routes() - 1;
  session.batch({"link-down " + core_link, withdraw(last), withdraw(last),
                 withdraw(last - 1), withdraw(100000), random_install()});
  session.query_all();

  // Repairs: the stranded groups revive, dead-admitted and tombstoned
  // members with them.
  session.batch({"link-up " + uplink, install(0, 1), install(0, 2),
                 random_install(), withdraw(5), random_install()});
  session.query_all();
  session.batch({"link-up " + core_link, install(2, 0), random_install(),
                 withdraw(1), withdraw(session.routes() - 1),
                 random_install()});
  session.query_all();
  return session.transcript();
}

TEST(DaemonGolden, MixedSequenceQueriesAreByteIdentical) {
  const std::string transcript = run_sequence();
  if (std::getenv("KAR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << transcript;
    GTEST_SKIP() << "golden file regenerated; review the diff";
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path();
  std::stringstream golden;
  golden << in.rdbuf();
  ASSERT_EQ(transcript, golden.str());
}

}  // namespace
}  // namespace kar
