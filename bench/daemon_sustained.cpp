// Sustained daemon throughput: a mixed request stream against a live kard
// serving a large route store under link churn (ISSUE: controller daemon).
//
// Phases:
//   1. preload — pipeline `install` requests through Kard::submit_line()
//      until the store holds --routes routes (admission batching coalesces
//      them into flush_max-sized epochs; the preload rate is reported but
//      not gated);
//   2. measured — drive --ops mixed requests: queries against random keys,
//      fresh installs, one-shot withdraws, and a seeded link-state toggle
//      on a random core link every --churn-every ops. Immediate verbs
//      (query) resolve inside submit_line(), so their latency is the call
//      duration; mutations are pipelined through a bounded window of
//      futures and reaped as their epoch flushes, so their latency spans
//      admission -> response exactly like a socket client would see.
//
// Reported: mixed req/s, p50/p99 latency overall and per class, epochs
// applied, and the zero-downtime witness — the number of queries answered
// while a reconvergence epoch was in flight (must be > 0 under churn; the
// daemon never blocks reads behind the engine).
//
// Acceptance (the gate behind --min-throughput): >= 100k mixed req/s
// against a 1M-route store on rnp28, zero error responses. The committed
// record lives in BENCH_daemon.json (regenerate with:
// daemon_sustained --routes=1000000 --ops=400000 --churn-every=50000
//                  --flush-interval=0.005 --window=2048
//                  --min-throughput=100000 --out=BENCH_daemon.json).
// Everything shares the one CI core, so epoch wall time trades directly
// against request throughput — the committed parameters keep one
// core-link toggle per ~0.4 s of run, which is still far above real
// backbone churn rates.
//
// Usage: daemon_sustained [--topology=rnp28] [--routes=1000000]
//                         [--ops=400000] [--window=256] [--churn-every=500]
//                         [--flush-interval=0.0005] [--flush-max=4096]
//                         [--seed=1] [--min-throughput=0] [--out=PATH]
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "daemon/daemon.hpp"
#include "runner/jsonl.hpp"
#include "stats/summary.hpp"
#include "topology/graph.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// One pipelined mutation in flight: its response future and submit time.
struct Pending {
  std::future<std::string> future;
  Clock::time_point t0;
};

/// Latency accounting for one request class.
struct ClassStats {
  std::vector<double> latencies;
  std::size_t errors = 0;
  std::string first_error;  ///< Sample response, for the failure report.

  void record(double latency_s, const std::string& response) {
    latencies.push_back(latency_s);
    if (!is_ok(response)) {
      if (errors == 0) first_error = response;
      ++errors;
    }
  }
};

/// Reaps every already-resolved mutation from the front of the window;
/// when `block` is set, waits the front request out first (backpressure
/// when the window is full).
void reap(std::deque<Pending>& window, ClassStats& stats, bool block) {
  while (!window.empty()) {
    Pending& front = window.front();
    if (!block && front.future.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready) {
      return;
    }
    const std::string response = front.future.get();
    stats.record(seconds_since(front.t0), response);
    window.pop_front();
    block = false;  // only the front is forced; the rest reap lazily
  }
}

/// Waits every in-flight mutation out (end-of-phase barrier).
void drain(std::deque<Pending>& window, ClassStats& stats) {
  while (!window.empty()) reap(window, stats, true);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = kar::common::Flags::parse_cli(argc, argv);
  const std::string topology = flags.get_string("topology", "rnp28");
  const auto routes = static_cast<std::size_t>(
      flags.get_int("routes", 1000000));
  const auto ops = static_cast<std::size_t>(flags.get_int("ops", 400000));
  const auto window_cap =
      static_cast<std::size_t>(flags.get_int("window", 256));
  const auto churn_every =
      static_cast<std::size_t>(flags.get_int("churn-every", 500));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double min_throughput = flags.get_double("min-throughput", 0.0);
  const std::string out_path = flags.get_string("out", "");

  kar::daemon::KardConfig config;
  config.topology = topology;
  config.flush_interval_s = flags.get_double("flush-interval", 0.0005);
  config.flush_max_ops =
      static_cast<std::size_t>(flags.get_int("flush-max", 4096));
  config.snapshot_on_shutdown = false;
  if (kar::common::report_unread(flags, "daemon_sustained")) return 2;
  kar::daemon::Kard kard(config);
  kard.start();

  const kar::topo::Topology& topo = kard.topology();
  const auto edges = topo.nodes_of_kind(kar::topo::NodeKind::kEdgeNode);
  if (edges.size() < 2) {
    std::cerr << "daemon_sustained: topology has no edge pairs\n";
    return 2;
  }
  // Core switch-to-switch links, by endpoint name, for churn requests.
  std::vector<std::pair<std::string, std::string>> core_links;
  std::vector<bool> core_link_up;
  for (kar::topo::LinkId id = 0;
       id < static_cast<kar::topo::LinkId>(topo.link_count()); ++id) {
    const kar::topo::Link& link = topo.link(id);
    if (topo.kind(link.a.node) == kar::topo::NodeKind::kCoreSwitch &&
        topo.kind(link.b.node) == kar::topo::NodeKind::kCoreSwitch) {
      core_links.emplace_back(topo.name(link.a.node), topo.name(link.b.node));
      core_link_up.push_back(true);
    }
  }

  kar::common::Rng rng(kar::common::derive_seed(seed, 0xda3e40));
  const auto random_pair = [&]() {
    const std::size_t si = rng.below(edges.size());
    std::size_t di = rng.below(edges.size() - 1);
    if (di >= si) ++di;
    return "install " + topo.name(edges[si]) + ' ' + topo.name(edges[di]);
  };

  // --- phase 1: preload ----------------------------------------------------
  std::deque<Pending> window;
  ClassStats preload_stats;
  const Clock::time_point preload_t0 = Clock::now();
  for (std::size_t i = 0; i < routes; ++i) {
    reap(window, preload_stats, window.size() >= window_cap);
    window.push_back({kard.submit_line(random_pair()), Clock::now()});
  }
  drain(window, preload_stats);
  const double preload_s = seconds_since(preload_t0);
  if (preload_stats.errors != 0) {
    std::cerr << "daemon_sustained: " << preload_stats.errors
              << " preload installs failed\n";
    return 2;
  }

  // --- phase 2: measured mixed workload ------------------------------------
  ClassStats query_stats;
  ClassStats mutation_stats;
  std::size_t installs = 0;
  std::size_t withdraws = 0;
  std::size_t churns = 0;
  std::size_t queries_during_epoch = 0;
  std::size_t withdraw_cursor = 0;  // preloaded keys, each withdrawn once
  const std::uint64_t epochs_before = kard.epochs_applied();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    reap(window, mutation_stats, window.size() >= window_cap);
    if (churn_every != 0 && !core_links.empty() && i % churn_every == 0 &&
        i != 0) {
      const std::size_t pick = rng.below(core_links.size());
      const bool down = core_link_up[pick];
      core_link_up[pick] = !down;
      const std::string line = std::string(down ? "link-down " : "link-up ") +
                               core_links[pick].first + ' ' +
                               core_links[pick].second;
      window.push_back({kard.submit_line(line), Clock::now()});
      ++churns;
      continue;
    }
    const std::uint64_t r = rng.below(100);
    if (r < 80) {
      // Immediate verb: the future is resolved inside submit_line(), so
      // the call duration is the request latency. The zero-downtime
      // witness: the read was answered while a reconvergence epoch was
      // running or while admitted mutations were still waiting on theirs
      // (the window was reaped just above, so a leftover entry is a
      // genuinely unflushed write).
      const bool busy_before =
          kard.epoch_in_progress() || !window.empty();
      const Clock::time_point q0 = Clock::now();
      auto future =
          kard.submit_line("query " + std::to_string(rng.below(routes)));
      const std::string response = future.get();
      query_stats.record(seconds_since(q0), response);
      if (busy_before || kard.epoch_in_progress()) ++queries_during_epoch;
    } else if (r < 90 || withdraw_cursor >= routes) {
      window.push_back({kard.submit_line(random_pair()), Clock::now()});
      ++installs;
    } else {
      window.push_back(
          {kard.submit_line("withdraw " + std::to_string(withdraw_cursor++)),
           Clock::now()});
      ++withdraws;
    }
  }
  drain(window, mutation_stats);
  const double wall_s = seconds_since(t0);
  const std::uint64_t epochs =
      kard.epochs_applied() - epochs_before;
  kard.stop();

  const std::size_t queries = query_stats.latencies.size();
  const std::size_t mutations = mutation_stats.latencies.size();
  const std::size_t errors = query_stats.errors + mutation_stats.errors;
  const double req_per_s =
      wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0;
  std::vector<double> all = query_stats.latencies;
  all.insert(all.end(), mutation_stats.latencies.begin(),
             mutation_stats.latencies.end());
  const auto pct = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : kar::stats::percentile(v, p);
  };

  std::cout << "=== kard sustained mixed workload ===\n";
  kar::common::TextTable table(
      {"class", "requests", "p50 us", "p99 us", "errors"});
  table.add_row({"query", std::to_string(queries),
                 kar::common::fmt_double(pct(query_stats.latencies, 50) * 1e6, 1),
                 kar::common::fmt_double(pct(query_stats.latencies, 99) * 1e6, 1),
                 std::to_string(query_stats.errors)});
  table.add_row(
      {"mutation", std::to_string(mutations),
       kar::common::fmt_double(pct(mutation_stats.latencies, 50) * 1e6, 1),
       kar::common::fmt_double(pct(mutation_stats.latencies, 99) * 1e6, 1),
       std::to_string(mutation_stats.errors)});
  table.add_row({"all", std::to_string(ops),
                 kar::common::fmt_double(pct(all, 50) * 1e6, 1),
                 kar::common::fmt_double(pct(all, 99) * 1e6, 1),
                 std::to_string(errors)});
  std::cout << table.render();
  std::cout << "store: " << routes << " preloaded routes in "
            << kar::common::fmt_double(preload_s, 2) << " s ("
            << kar::common::fmt_double(
                   preload_s > 0.0 ? static_cast<double>(routes) / preload_s
                                   : 0.0,
                   0)
            << " installs/s)\n";
  std::cout << "measured: " << ops << " mixed requests in "
            << kar::common::fmt_double(wall_s, 2) << " s = "
            << kar::common::fmt_double(req_per_s, 0) << " req/s ("
            << installs << " installs, " << withdraws << " withdraws, "
            << churns << " link toggles, " << epochs << " epochs)\n";
  std::cout << "zero-downtime: " << queries_during_epoch
            << " queries answered while an epoch was in flight\n";

  for (const ClassStats* stats : {&query_stats, &mutation_stats}) {
    if (stats->errors != 0) {
      std::cerr << "daemon_sustained: sample error response: "
                << stats->first_error << '\n';
    }
  }
  const bool downtime_ok = churns == 0 || queries_during_epoch > 0;
  const bool pass = errors == 0 && req_per_s >= min_throughput && downtime_ok;
  std::cout << "acceptance: zero errors, queries served during epochs, and "
            << "req/s >= " << kar::common::fmt_double(min_throughput, 0)
            << " -> " << (pass ? "PASS" : "FAIL") << '\n';

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "daemon_sustained: cannot open " << out_path << '\n';
      return 2;
    }
    const auto class_json = [&](const ClassStats& stats) {
      kar::runner::JsonObject o;
      o.field("requests", static_cast<std::uint64_t>(stats.latencies.size()))
          .field("p50_s", pct(stats.latencies, 50))
          .field("p99_s", pct(stats.latencies, 99))
          .field("errors", static_cast<std::uint64_t>(stats.errors));
      return o.str();
    };
    kar::runner::JsonObject record;
    record.field("bench", "daemon_sustained")
        .raw("provenance", kar::bench::provenance_json())
        .field("topology", topology)
        .field("routes", static_cast<std::uint64_t>(routes))
        .field("ops", static_cast<std::uint64_t>(ops))
        .field("seed", seed)
        .field("flush_interval_s", config.flush_interval_s)
        .field("flush_max_ops",
               static_cast<std::uint64_t>(config.flush_max_ops))
        .field("window", static_cast<std::uint64_t>(window_cap))
        .field("churn_every", static_cast<std::uint64_t>(churn_every))
        .field("preload_s", preload_s)
        .field("wall_s", wall_s)
        .field("req_per_s", req_per_s)
        .field("p50_s", pct(all, 50))
        .field("p99_s", pct(all, 99))
        .raw("query", class_json(query_stats))
        .raw("mutation", class_json(mutation_stats))
        .field("installs", static_cast<std::uint64_t>(installs))
        .field("withdraws", static_cast<std::uint64_t>(withdraws))
        .field("link_toggles", static_cast<std::uint64_t>(churns))
        .field("epochs", epochs)
        .field("queries_during_epoch",
               static_cast<std::uint64_t>(queries_during_epoch))
        .field("pass", pass);
    out << record.str() << '\n';
    std::cout << "recorded " << out_path << '\n';
  }
  return pass ? 0 : 1;
}
