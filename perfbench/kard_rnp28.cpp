// kard_rnp28: an in-process Kard on rnp28 with host edges, preloaded with
// kRoutes routes, driven by one client thread through submit_line()
// (the socket and framing path is out of scope). The daemon runs its own
// flusher thread with one engine shard.
//
//   * Closed loop (end-to-end wall_s): a fixed mixed batch — 80% query,
//     10% install, 10% withdraw, a core-link toggle every
//     kToggleEveryRequests requests — with queries answered inline and
//     mutations pipelined through a window of kWindow futures.
//   * Open loop (traced run): the same mix offered at kNominalRps with a
//     core-link toggle every kToggleEveryS, every request timed from its
//     due time; then a ladder of rising rates, up to its first failing
//     rung.
//   * Link segment (traced run): kLinkSegmentToggles lone toggles, for the
//     per-link-event re-encode and affected-route counts.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "daemon/daemon.hpp"
#include "obs/metrics.hpp"
#include "topology/graph.hpp"
#include "workloads.hpp"

namespace kar::perfbench {
namespace {

constexpr std::size_t kRoutes = 200000;
constexpr std::size_t kPreloadChunks = 10;
/// Preloads per untraced run. The first, into fresh memory, is always the
/// slowest and only warms up; the others are timed.
constexpr std::size_t kSetupReps = 4;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kClosedLoopRequests = 50000;
/// Every install grows the store, so the number of closed-loop batches is
/// fixed from --seconds (one per this many seconds), not from the clock:
/// the same run length always does the same work and ends at the same
/// store size.
constexpr double kSecondsPerBatch = 1.0;
constexpr std::size_t kToggleEveryRequests = 5000;
constexpr double kNominalRps = 40000.0;
constexpr double kToggleEveryS = 0.2;
/// The ladder starts at kNominalRps and multiplies the rate by kLadderStep
/// per rung of kRungS seconds, until a rung fails. A rung passes when the
/// client keeps up (generator-lag p50 under kLagP50LimitS, so most requests
/// go out on time and no backlog grows) and its query p99 stays under
/// kQueryP99LimitS. Link epochs stall queries at every rate, and which
/// stalls a phase catches moves its query p99 between ~20 and ~400 ms, so
/// the limit sits above that stall tail: it trips on a growing backlog or
/// a collapsed epoch, not on the luck of the rung.
constexpr double kLadderStep = 1.25;
constexpr std::size_t kLadderMaxRungs = 12;
constexpr double kRungS = 2.0;
constexpr double kLagP50LimitS = 1e-3;
constexpr double kQueryP99LimitS = 1.0;
constexpr std::size_t kLinkSegmentToggles = 16;
constexpr std::size_t kCheckedKeys = 64;

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// The raw text of `"name":<value>` in a flat JSON response ("" if absent).
std::string json_value(const std::string& response, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (response[begin] == '[') {
    end = response.find(']', begin) + 1;
  } else if (response[begin] == '"') {
    end = response.find('"', begin + 1) + 1;
  } else {
    end = response.find_first_of(",}", begin);
  }
  return response.substr(begin, end - begin);
}

std::string unquote(const std::string& text) {
  return text.size() >= 2 ? text.substr(1, text.size() - 2) : text;
}

/// Sum over every series of a family: {counter value or histogram count,
/// histogram sum}.
struct FamilyTotal {
  double count = 0.0;
  double sum = 0.0;
};
FamilyTotal family_total(const obs::MetricsSnapshot& snapshot,
                         const std::string& family) {
  FamilyTotal total;
  const auto it = snapshot.families.find(family);
  if (it == snapshot.families.end()) return total;
  for (const auto& [labels, series] : it->second.series) {
    total.count += static_cast<double>(series.count);
    total.sum += series.value;
  }
  return total;
}
FamilyTotal delta(const obs::MetricsSnapshot& before,
                  const obs::MetricsSnapshot& after,
                  const std::string& family) {
  const FamilyTotal a = family_total(before, family);
  const FamilyTotal b = family_total(after, family);
  return {b.count - a.count, b.sum - a.sum};
}

enum class Kind : std::uint8_t { kQuery, kInstall, kWithdraw, kLink };

/// The client side: the running daemon, the request generator and the
/// per-class outcome of every request it sent.
class Client {
 public:
  Client(std::uint64_t seed, Report& report) : rng_(seed), report_(report) {
    daemon::KardConfig config;
    config.topology = "rnp28";
    config.host_edges = true;
    config.snapshot_on_shutdown = false;
    kard_ = std::make_unique<daemon::Kard>(config);
    kard_->start();
    const topo::Topology& topo = kard_->topology();
    for (const topo::NodeId edge :
         topo.nodes_of_kind(topo::NodeKind::kEdgeNode)) {
      edges_.push_back(topo.name(edge));
    }
    for (topo::LinkId id = 0; id < static_cast<topo::LinkId>(topo.link_count());
         ++id) {
      const topo::Link& link = topo.link(id);
      if (topo.kind(link.a.node) == topo::NodeKind::kCoreSwitch &&
          topo.kind(link.b.node) == topo::NodeKind::kCoreSwitch) {
        core_links_.push_back(topo.name(link.a.node) + ' ' +
                              topo.name(link.b.node));
      }
    }
  }
  ~Client() { kard_->stop(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  daemon::Kard& kard() { return *kard_; }

  /// Installs kRoutes routes through the pipelined window, in
  /// kPreloadChunks chunks; returns the time taken, each chunk rescaled by
  /// `pace` as it ends.
  double preload(HostPace& pace) {
    double paced_s = 0.0;
    for (std::size_t chunk = 0; chunk < kPreloadChunks; ++chunk) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < kRoutes / kPreloadChunks; ++i) {
        if (window_.size() >= kWindow) reap_front();
        send(Kind::kInstall, Clock::now());
      }
      if (chunk + 1 == kPreloadChunks) drain();
      paced_s += pace.rescale(seconds_since(t0));
    }
    return paced_s;
  }

  /// The next request of the 80/10/10 mix (link toggles are scheduled by
  /// the caller). Withdrawals take back this client's own oldest answered
  /// install, so the preloaded routes stay live and the mix stays
  /// stationary however long the run.
  Kind next_kind() {
    const std::uint64_t r = rng_.below(100);
    if (r < 80) return Kind::kQuery;
    if (r < 90 || own_keys_.empty()) return Kind::kInstall;
    return Kind::kWithdraw;
  }

  /// Sends one request due at `due`. Queries complete inline; mutations
  /// join the window. With `admit` set, the duration of submit_line() for
  /// a mutation is recorded.
  void send(Kind kind, Clock::time_point due,
            std::vector<double>* admit = nullptr) {
    std::string line;
    switch (kind) {
      case Kind::kQuery:
        line = "query " + std::to_string(rng_.below(kRoutes));
        break;
      case Kind::kInstall: {
        const std::size_t s = rng_.below(edges_.size());
        std::size_t d = rng_.below(edges_.size() - 1);
        if (d >= s) ++d;
        line = "install " + edges_[s] + ' ' + edges_[d];
        break;
      }
      case Kind::kWithdraw:
        line = "withdraw " + own_keys_.front();
        own_keys_.pop_front();
        break;
      case Kind::kLink:
        line = next_toggle();
        break;
    }
    ++report_.attempted;
    const Clock::time_point t0 = Clock::now();
    std::future<std::string> future = kard_->submit_line(line);
    if (kind == Kind::kQuery) {
      record(kind, due, future.get());
      return;
    }
    if (admit != nullptr) {
      admit->push_back(seconds_since(t0));
    }
    window_.push_back({std::move(future), due, kind});
  }

  /// Completes every mutation at the front of the window that is ready
  /// (blocking on the front one when `block`).
  void reap(bool block) {
    while (!window_.empty()) {
      if (!block && window_.front().future.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        return;
      }
      reap_front();
      block = false;
    }
  }
  void drain() {
    while (!window_.empty()) reap(true);
  }
  [[nodiscard]] std::size_t in_flight() const { return window_.size(); }

  /// Brings every core link this client took down back up.
  void restore_links() {
    if (toggle_down_) send(Kind::kLink, Clock::now());
    drain();
  }

  /// Latencies (seconds from due time) per request class since clear().
  std::vector<double> latency[4];
  /// Forgets the latencies and the installed keys seen so far (the
  /// preloaded routes are never withdrawn).
  void clear() {
    for (auto& samples : latency) samples.clear();
    own_keys_.clear();
  }

 private:
  struct InFlight {
    std::future<std::string> future;
    Clock::time_point due;
    Kind kind;
  };

  /// Toggles come in pairs: a core link goes down, then the same link comes
  /// back up, so every pair leaves the topology intact. Pairs take the core
  /// links in turn, in topology order, so a run of any seed toggles the
  /// same links: how many routes a toggle re-encodes depends on the link,
  /// and a seeded pick would make that part of the work differ by seed.
  std::string next_toggle() {
    if (!toggle_down_) {
      toggle_link_ = core_links_[toggle_pairs_++ % core_links_.size()];
      toggle_down_ = true;
      return "link-down " + toggle_link_;
    }
    toggle_down_ = false;
    return "link-up " + toggle_link_;
  }

  void reap_front() {
    InFlight& front = window_.front();
    record(front.kind, front.due, front.future.get());
    window_.pop_front();
  }

  /// Records a completed request, timed from its due time to now.
  void record(Kind kind, Clock::time_point due, const std::string& response) {
    latency[static_cast<std::size_t>(kind)].push_back(seconds_since(due));
    if (!is_ok(response)) {
      ++report_.failed;
      report_.check(false, "error response: " + response);
    } else if (kind == Kind::kInstall) {
      own_keys_.push_back(json_value(response, "key"));
    }
  }

  common::Rng rng_;
  Report& report_;
  std::unique_ptr<daemon::Kard> kard_;
  std::vector<std::string> edges_;
  std::vector<std::string> core_links_;
  std::deque<InFlight> window_;
  std::deque<std::string> own_keys_;
  bool toggle_down_ = false;
  std::size_t toggle_pairs_ = 0;
  std::string toggle_link_;
};

/// One closed-loop batch; returns its wall time.
double closed_loop(Client& client, std::vector<double>* admit) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 1; i <= kClosedLoopRequests; ++i) {
    if (client.in_flight() >= kWindow) client.reap(true);
    client.reap(false);
    const Kind kind =
        i % kToggleEveryRequests == 0 ? Kind::kLink : client.next_kind();
    client.send(kind, Clock::now(), admit);
  }
  client.drain();
  return seconds_since(t0);
}

/// Offers the mix at `rps` for `seconds`, timing every request from its
/// due time. Returns the generator lag (send time minus due time) samples.
std::vector<double> open_loop(Client& client, double rps, double seconds,
                              std::vector<double>* admit) {
  std::vector<double> lag;
  const auto requests = static_cast<std::size_t>(rps * seconds);
  const auto toggles = static_cast<std::size_t>(seconds / kToggleEveryS);
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  std::size_t next_toggle = 1;
  for (std::size_t i = 0; i < requests; ++i) {
    const double due_s = static_cast<double>(i) / rps;
    Kind kind = client.next_kind();
    if (next_toggle <= toggles &&
        due_s >= kToggleEveryS * static_cast<double>(next_toggle)) {
      kind = Kind::kLink;
      ++next_toggle;
    }
    const Clock::time_point due = at(due_s);
    while (Clock::now() < due) client.reap(false);
    client.reap(false);
    lag.push_back(std::max(0.0, seconds_since(due)));
    client.send(kind, due, admit);
  }
  client.drain();
  return lag;
}

std::size_t kind_index(Kind kind) { return static_cast<std::size_t>(kind); }

/// Final-state check: for a seeded sample of preloaded keys, the stored
/// route must be the one `encode` computes now. Returns the share of the
/// sampled routes wider than 64 bits.
double check_answers(Client& client, std::uint64_t seed, Report& report) {
  common::Rng rng(common::derive_seed(seed, 0xc4ec));
  std::size_t wide = 0;
  for (std::size_t i = 0; i < kCheckedKeys; ++i) {
    const std::uint64_t key = rng.below(kRoutes);
    const std::string stored =
        client.kard().execute_line("query " + std::to_string(key));
    const std::string fresh = client.kard().execute_line(
        "encode " + unquote(json_value(stored, "src")) + ' ' +
        unquote(json_value(stored, "dst")));
    ++report.attempted;
    const bool same =
        is_ok(stored) && is_ok(fresh) && json_value(stored, "live") == "true" &&
        json_value(stored, "route_id") == json_value(fresh, "route_id") &&
        json_value(stored, "path") == json_value(fresh, "path");
    if (!same) {
      ++report.failed;
      report.check(false, "key " + std::to_string(key) + ": query " + stored +
                              " vs encode " + fresh);
    }
    if (std::stoull("0" + json_value(stored, "bits")) > 64) ++wide;
  }
  return static_cast<double>(wide) / static_cast<double>(kCheckedKeys);
}

}  // namespace

Report run_kard_rnp28(const Options& options) {
  Report report;
  report.param("topology", "rnp28+host-edges");
  report.param("routes", kRoutes);
  report.param("mix", "80% query, 10% install, 10% withdraw");
  report.param("closed_loop_requests", kClosedLoopRequests);
  report.param("window", kWindow);
  report.param("toggle_every_requests", kToggleEveryRequests);
  report.param("engine_shards", 1);

  // Setup: a fresh daemon preloaded to kRoutes; only the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Client> client;
  double preload_rss_bytes = 0.0;
  HostPace pace;
  for (std::size_t rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    client.reset();
    const double rss_before = current_rss_bytes();
    const Clock::time_point t0 = Clock::now();
    client = std::make_unique<Client>(
        common::derive_seed(options.seed, 0xda3e + rep), report);
    const double start_s = pace.rescale(seconds_since(t0));
    const double preload_s = client->preload(pace);
    if (rep > 0) setup_s.push_back(start_s + preload_s);
    preload_rss_bytes = current_rss_bytes() - rss_before;
  }
  client->clear();

  // One untimed batch first, so every timed batch starts from a store that
  // has already served the mixed load.
  (void)closed_loop(*client, nullptr);
  client->clear();

  // Traced runs spend 0.3 of their time on untraced + traced batch pairs.
  const double closed_s = options.trace ? 0.15 * options.seconds
                                        : options.seconds;
  const std::size_t batches = std::max<std::size_t>(
      options.trace ? 2 : 3,
      static_cast<std::size_t>(std::lround(closed_s / kSecondsPerBatch)));
  report.param("closed_loop_batches", batches);
  std::vector<double> plain_wall_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<double> admit_s;
  for (std::size_t batch = 0; batch < batches; ++batch) {
    plain_wall_s.push_back(closed_loop(*client, nullptr));
    if (options.trace) {
      traced_wall_s.push_back(closed_loop(*client, &admit_s));
    } else {
      wall_s.push_back(pace.rescale(plain_wall_s.back()));
    }
  }

  if (!options.trace) {
    client->restore_links();
    (void)check_answers(*client, options.seed, report);
    report.metric("setup_s", median(setup_s), "s");
    // Unlike the simulator units, batches differ by design (which toggles
    // and compactions land in them, and when epochs cut the mutations), so
    // wall_s is their mean: the fixed closed-loop work over its batches.
    double total_s = 0.0;
    for (const double w : wall_s) total_s += w;
    report.metric("wall_s", total_s / static_cast<double>(wall_s.size()),
                  "s");
    report.samples.emplace_back("setup_s", setup_s);
    report.samples.emplace_back("wall_s", wall_s);
    report.samples.emplace_back("reference_s", pace.reference_s());
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    return report;
  }

  // Nominal open-loop rate, with the daemon's own counters around it.
  const double nominal_s = 0.3 * options.seconds;
  client->clear();
  admit_s.clear();
  const obs::MetricsSnapshot before = client->kard().registry().snapshot();
  const std::vector<double> lag =
      open_loop(*client, kNominalRps, nominal_s, &admit_s);
  const obs::MetricsSnapshot after = client->kard().registry().snapshot();
  const std::vector<double>& queries =
      client->latency[kind_index(Kind::kQuery)];
  const std::vector<double>& links = client->latency[kind_index(Kind::kLink)];
  std::vector<double> mutations = client->latency[kind_index(Kind::kInstall)];
  for (const double l : client->latency[kind_index(Kind::kWithdraw)]) {
    mutations.push_back(l);
  }
  report.metric("query_p50_us", 1e6 * percentile(queries, 50), "us");
  report.metric("query_p99_us", 1e6 * percentile(queries, 99), "us");
  report.metric("mutation_p50_ms", 1e3 * percentile(mutations, 50), "ms");
  report.metric("mutation_p99_ms", 1e3 * percentile(mutations, 99), "ms");
  report.metric("link_p50_ms", 1e3 * percentile(links, 50), "ms");
  report.metric("daemon.generator_lag_p99_ms", 1e3 * percentile(lag, 99), "ms");
  report.metric("daemon.admit_p50_us", 1e6 * percentile(admit_s, 50), "us");
  report.metric("daemon.admit_p99_us", 1e6 * percentile(admit_s, 99), "us");
  const FamilyTotal epoch_ops = delta(before, after, "kar_daemon_epoch_ops");
  const FamilyTotal epoch_s = delta(before, after, "kar_daemon_epoch_seconds");
  const FamilyTotal reconverge_s =
      delta(before, after, "kar_ctrlplane_reconvergence_seconds");
  report.metric("daemon.epochs", epoch_ops.count, "count");
  const auto mean = [](const FamilyTotal& t) {
    return t.count > 0 ? t.sum / t.count : 0.0;
  };
  report.metric("daemon.ops_per_epoch", mean(epoch_ops), "count");
  report.metric("daemon.epoch_ms_mean", 1e3 * mean(epoch_s), "ms");
  report.metric("ctrlplane.reconverge_ms_mean", 1e3 * mean(reconverge_s), "ms");

  // Ladder: the highest offered rate the client keeps up with while the
  // query tail stays under the fixed limit.
  double max_rps = 0.0;
  double failed_rps = 0.0;
  double rps = kNominalRps;
  for (std::size_t rung = 0; rung < kLadderMaxRungs;
       ++rung, rps *= kLadderStep) {
    client->clear();
    const std::vector<double> rung_lag =
        open_loop(*client, rps, kRungS, nullptr);
    const double query_p99 = percentile(queries, 99);
    const double lag_p50 = percentile(rung_lag, 50);
    const bool pass =
        lag_p50 <= kLagP50LimitS && query_p99 <= kQueryP99LimitS;
    std::printf(
        "ladder: %.0f req/s offered, query p99 %.1f ms (limit %.1f), lag p50 "
        "%.3f ms (limit %.3f): %s\n",
        rps, 1e3 * query_p99, 1e3 * kQueryP99LimitS, 1e3 * lag_p50,
        1e3 * kLagP50LimitS, pass ? "pass" : "fail");
    if (!pass) {
      failed_rps = rps;
      break;
    }
    max_rps = rps;
  }
  if (failed_rps == 0.0) {
    std::printf("ladder: no rung failed up to %.0f req/s\n", max_rps);
  }
  report.metric("max_rps", max_rps, "req/s");
  report.metric("max_rps.first_failing_rung", failed_rps, "req/s");

  // Lone link toggles for the per-event control-plane work.
  client->restore_links();
  const obs::MetricsSnapshot links_before =
      client->kard().registry().snapshot();
  for (std::size_t i = 0; i < kLinkSegmentToggles; ++i) {
    client->send(Kind::kLink, Clock::now());
    client->drain();
  }
  const obs::MetricsSnapshot links_after = client->kard().registry().snapshot();
  const double toggles = static_cast<double>(kLinkSegmentToggles);
  report.metric(
      "ctrlplane.reencodes_per_link_event",
      delta(links_before, links_after, "kar_ctrlplane_reencodes_total").count /
          toggles,
      "count");
  report.metric(
      "ctrlplane.affected_per_link_event",
      delta(links_before, links_after, "kar_ctrlplane_affected_routes").sum /
          toggles,
      "count");
  report.metric("ctrlplane.bytes_per_route",
                preload_rss_bytes / static_cast<double>(kRoutes), "B");

  report.metric("rns.wide_route_share",
                check_answers(*client, options.seed, report), "share");
  report.metric("trace_overhead_s",
                median(traced_wall_s) - median(plain_wall_s), "s");
  return report;
}

}  // namespace kar::perfbench
