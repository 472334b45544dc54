// Differential test of kard's answers under seeded churn on rnp28 with host
// edges: installs, withdrawals, `compact`, core-link down/up pairs, and a
// host-uplink cut that kills every group of one edge and a repair that
// revives them. `query` answers splice each endpoint group's route fields,
// rendered once when the group changes; after every epoch this checks,
// for every key, that
//   * a live key's route fields equal those `encode` computes afresh for
//     its endpoints (and a dead key's endpoints have no path);
//   * an `install` answer's route ID is the one its key's query reports;
//   * every query answer equals the answer of a Kard restored from a
//     snapshot taken at that point.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "daemon/daemon.hpp"
#include "support/testsupport.hpp"
#include "topology/graph.hpp"

namespace kar {
namespace {

constexpr std::size_t kBatch = 10;
constexpr std::size_t kEdges = 8;
constexpr std::size_t kEpochs = 24;
/// The host uplink of edge 0 goes down before this epoch and comes back
/// up before kRepairEpoch.
constexpr std::size_t kCutEpoch = 5;
constexpr std::size_t kRepairEpoch = 11;

daemon::KardConfig session_config() {
  daemon::KardConfig config;
  config.topology = "rnp28";
  config.host_edges = true;
  // Exactly kBatch mutations close a batch, so every batch is one epoch.
  config.flush_max_ops = kBatch;
  config.flush_interval_s = 60.0;
  config.compact_every_epochs = 0;
  config.snapshot_on_shutdown = false;
  config.metrics = false;
  return config;
}

/// The text of string field `name` in a flat JSON answer.
std::string string_field(const std::string& answer, const std::string& name) {
  const std::string needle = "\"" + name + "\":\"";
  const std::size_t at = answer.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  return answer.substr(begin, answer.find('"', begin) - begin);
}

/// The route fields an answer ends with, from `"route_id"` to the brace.
std::string route_fields(const std::string& answer) {
  const std::size_t at = answer.find("\"route_id\":");
  if (at == std::string::npos) return "";
  return answer.substr(at, answer.size() - 1 - at);
}

bool is_ok(const std::string& answer) {
  return answer.rfind("{\"ok\":true", 0) == 0;
}

TEST(DaemonAnswers, QueriesMatchEncodeAndARestoredDaemonUnderChurn) {
  common::Rng rng = testsupport::make_rng(0xa45e7ULL, "DaemonAnswers");
  daemon::Kard kard(session_config());
  kard.start();
  const topo::Topology& t = kard.topology();
  const std::vector<topo::NodeId> all_edges =
      t.nodes_of_kind(topo::NodeKind::kEdgeNode);
  ASSERT_GE(all_edges.size(), kEdges);
  const std::vector<topo::NodeId> edges(all_edges.begin(),
                                        all_edges.begin() + kEdges);
  const topo::NodeId cut_edge = edges[0];
  const std::string uplink =
      t.name(cut_edge) + ' ' + t.name((*t.neighbors(cut_edge).begin()).second);
  std::vector<std::string> core_links;
  for (topo::LinkId id = 0; id < static_cast<topo::LinkId>(t.link_count());
       ++id) {
    const topo::Link& link = t.link(id);
    if (t.kind(link.a.node) == topo::NodeKind::kCoreSwitch &&
        t.kind(link.b.node) == topo::NodeKind::kCoreSwitch) {
      core_links.push_back(t.name(link.a.node) + ' ' + t.name(link.b.node));
    }
  }
  ASSERT_FALSE(core_links.empty());

  const std::string snapshot_path = ::testing::TempDir() +
                                    "kar_daemon_answers_" +
                                    std::to_string(::getpid()) + ".snap";
  std::size_t routes = 0;
  std::vector<bool> withdrawn;
  std::string down_link;  // the core link currently down, if any
  std::size_t live_checked = 0;
  std::size_t dead_checked = 0;
  std::size_t revived = 0;
  std::vector<bool> was_dead;

  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    std::vector<std::string> lines;
    if (epoch == kCutEpoch) lines.push_back("link-down " + uplink);
    if (epoch == kRepairEpoch) lines.push_back("link-up " + uplink);
    if (epoch >= 2) {
      // Core-link pairs: a link goes down in one epoch and back up in the
      // next.
      if (!down_link.empty()) {
        lines.push_back("link-up " + down_link);
        down_link.clear();
      } else {
        down_link = core_links[rng.below(core_links.size())];
        lines.push_back("link-down " + down_link);
      }
      for (std::size_t w = 0; w < 2 && routes > 0; ++w) {
        const std::size_t key = rng.below(routes);
        if (withdrawn[key]) continue;
        withdrawn[key] = true;
        lines.push_back("withdraw " + std::to_string(key));
      }
    }
    while (lines.size() < kBatch) {
      const std::size_t s = rng.below(edges.size());
      std::size_t d = rng.below(edges.size() - 1);
      if (d >= s) ++d;
      lines.push_back("install " + t.name(edges[s]) + ' ' + t.name(edges[d]));
    }
    std::vector<std::future<std::string>> futures;
    for (const std::string& line : lines) {
      futures.push_back(kard.submit_line(line));
    }
    // Route IDs the install answers reported, by key.
    std::vector<std::pair<std::size_t, std::string>> installed;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string answer = futures[i].get();
      ASSERT_TRUE(is_ok(answer)) << lines[i] << " -> " << answer;
      if (lines[i].rfind("install ", 0) != 0) continue;
      ++routes;
      withdrawn.push_back(false);
      const std::string route_id = string_field(answer, "route_id");
      EXPECT_EQ(answer.find("\"live\":true") != std::string::npos,
                !route_id.empty())
          << answer;
      installed.emplace_back(routes - 1, route_id);
    }
    if (epoch % 4 == 3) ASSERT_TRUE(is_ok(kard.execute_line("compact")));

    std::vector<std::string> answers(routes);
    for (std::size_t key = 0; key < routes; ++key) {
      answers[key] = kard.execute_line("query " + std::to_string(key));
      ASSERT_TRUE(is_ok(answers[key])) << answers[key];
    }
    for (const auto& [key, route_id] : installed) {
      EXPECT_EQ(string_field(answers[key], "route_id"), route_id)
          << "install answer vs " << answers[key];
    }

    // Against a fresh `encode` of each key's endpoints, once per group.
    std::map<std::pair<std::string, std::string>, std::string> encoded;
    was_dead.resize(routes, false);
    for (std::size_t key = 0; key < routes; ++key) {
      const std::string& answer = answers[key];
      const std::pair<std::string, std::string> ends{
          string_field(answer, "src"), string_field(answer, "dst")};
      auto it = encoded.find(ends);
      if (it == encoded.end()) {
        it = encoded
                 .emplace(ends, kard.execute_line("encode " + ends.first +
                                                  ' ' + ends.second))
                 .first;
      }
      const bool live = answer.find("\"live\":true") != std::string::npos;
      if (live) {
        ASSERT_TRUE(is_ok(it->second)) << it->second;
        EXPECT_EQ(route_fields(answer), route_fields(it->second))
            << "key " << key;
        ++live_checked;
        if (was_dead[key]) ++revived;
      } else {
        EXPECT_EQ(route_fields(answer), "") << answer;
        EXPECT_EQ(string_field(it->second, "code"), "no-path") << it->second;
        ++dead_checked;
      }
      was_dead[key] = !live;
    }

    // Against a daemon restored from a snapshot taken now.
    (void)kard.write_snapshot(snapshot_path);
    daemon::KardConfig restore_config = session_config();
    restore_config.snapshot_path = snapshot_path;
    restore_config.restore = true;
    daemon::Kard restored(restore_config);
    for (std::size_t key = 0; key < routes; ++key) {
      ASSERT_EQ(restored.execute_line("query " + std::to_string(key)),
                answers[key]);
    }
  }
  kard.stop();
  std::remove(snapshot_path.c_str());
  // The churn reached every case: live groups, dead ones, and groups that
  // died and came back.
  EXPECT_GT(live_checked, 0u);
  EXPECT_GT(dead_checked, 0u);
  EXPECT_GT(revived, 0u);
}

}  // namespace
}  // namespace kar
