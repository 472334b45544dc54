#include "daemon/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/json.hpp"
#include "runner/jsonl.hpp"
#include "topogen/topogen.hpp"
#include "topology/builders.hpp"

namespace kar::daemon {

namespace {

topo::Scenario build_scenario(const KardConfig& config) {
  topo::Scenario s;
  if (topogen::is_gen_spec(config.topology)) {
    s = topogen::make_from_spec(config.topology);
  } else if (config.topology == "fig1") {
    s = topo::make_fig1_network();
  } else if (config.topology == "fig2") {
    s = topo::make_experimental15();
  } else if (config.topology == "rnp28") {
    s = topo::make_rnp28();
  } else {
    throw std::invalid_argument("kard: unknown topology " + config.topology +
                                " (expected fig1, fig2, rnp28 or a gen: "
                                "spec)\n" +
                                topogen::spec_grammar_help());
  }
  if (config.host_edges) (void)topo::attach_host_edges(s.topology);
  return s;
}

/// Room to reserve for an answer carrying `route` and the names of
/// `nodes`, so it is written in one allocation: at most ~200 bytes of keys
/// and numbers, under ten route-ID digits per 32-bit limb, and each name
/// with its quotes and comma.
std::size_t answer_bytes(const topo::Topology& topology,
                         const routing::EncodedRoute& route,
                         std::span<const topo::NodeId> nodes) {
  std::size_t bytes = 200 + 10 * route.route_id.limbs().size();
  for (const topo::NodeId node : nodes) bytes += topology.name(node).size() + 3;
  return bytes;
}

/// Answer room for the fields of an answer other than its names and route
/// fields: keys, booleans and up to two 20-digit numbers.
constexpr std::size_t kScalarAnswerBytes = 128;

/// The one writer of route fields, so the answers carrying them cannot
/// drift apart: `encode` calls it directly; `query` splices a group's text
/// rendered by it and `install` that text's `route_id` field.
void append_route_fields(runner::JsonObject& o,
                         const topo::Topology& topology,
                         const routing::EncodedRoute& route,
                         const std::vector<topo::NodeId>& path) {
  std::string& id = o.value("route_id");
  id += '"';
  route.route_id.append_decimal(id);
  id += '"';
  o.field("bits", static_cast<std::uint64_t>(route.bit_length))
      .field("assignments",
             static_cast<std::uint64_t>(route.assignments.size()))
      .field("primary", static_cast<std::uint64_t>(route.primary_count));
  std::string& names = o.value("path");
  names += '[';
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) names += ',';
    names += '"';
    common::append_json_escaped(names, topology.name(path[i]));
    names += '"';
  }
  names += ']';
}

/// The `route_id` field that opens a group's route-field text: the ID is
/// quoted decimal digits, so the text's first comma ends it.
std::string_view route_id_field(std::string_view route_fields) {
  return route_fields.substr(0, route_fields.find(','));
}

/// The `query` response body — also the restart-identity witness: every
/// field is either immutable or persisted by the snapshot, so a query
/// before a snapshot/restart answers byte-identically after it. That holds
/// for the group's cached `route_fields` too: they are a function of the
/// group's encoding and path alone, both persisted, and a restored daemon
/// renders them again at construction. The answer is written in one pass
/// into one buffer reserved up front.
std::string route_response(const topo::Topology& topology,
                           const ctrlplane::RouteView& entry,
                           std::string_view route_fields) {
  const std::string& src = topology.name(entry.src);
  const std::string& dst = topology.name(entry.dst);
  runner::JsonObject o(kScalarAnswerBytes + src.size() + dst.size() +
                       route_fields.size());
  o.field("ok", true)
      .field("key", static_cast<std::uint64_t>(entry.key))
      .field("src", src)
      .field("dst", dst)
      .field("live", entry.live)
      .field("withdrawn", entry.withdrawn)
      .field("version", entry.version);
  if (entry.live) o.fields(route_fields);
  return std::move(o).str();
}

}  // namespace

Kard::Kard(KardConfig config)
    : config_(std::move(config)),
      scenario_(build_scenario(config_)),
      store_(scenario_.topology),
      registry_(config_.metrics) {
  if (config_.restore) {
    if (config_.snapshot_path.empty()) {
      throw std::invalid_argument("kard: --restore needs a snapshot path");
    }
    const std::string bytes = read_snapshot_file(config_.snapshot_path);
    restored_ = restore_store(bytes, scenario_.topology, store_);
  }
  engine_ = std::make_unique<ctrlplane::ReconvergenceEngine>(
      scenario_.topology, store_, config_.engine);
  engine_->restore_version(restored_.engine_version);
  if (restored_.routes > 0) engine_->warm_spts();
  route_fields_.resize(store_.group_count());
  for (ctrlplane::GroupId id = 0; id < store_.group_count(); ++id) {
    render_route_fields(id);
  }
  register_metrics();
  engine_->attach_metrics(registry_);
  routes_gauge_.set(static_cast<double>(store_.size()));
  live_routes_gauge_.set(static_cast<double>(store_.live_count()));
}

Kard::~Kard() {
  try {
    stop();
  } catch (const std::exception&) {
    // Destructor path: a failed shutdown snapshot must not terminate.
  }
}

void Kard::render_route_fields(ctrlplane::GroupId id) {
  const ctrlplane::RouteGroup& group = store_.group(id);
  std::string text;
  if (group.live) {
    const topo::Topology& topology = scenario_.topology;
    runner::JsonObject o(answer_bytes(topology, group.route, group.core_path));
    append_route_fields(o, topology, group.route, group.core_path);
    const std::string object = std::move(o).str();
    text = object.substr(1, object.size() - 2);  // drop the braces
  }
  route_fields_[id] = std::move(text);
}

void Kard::register_metrics() {
  requests_by_verb_.resize(static_cast<std::size_t>(Verb::kShutdown) + 1);
  for (std::size_t v = 0; v < requests_by_verb_.size(); ++v) {
    requests_by_verb_[v] = registry_.counter(
        "kar_daemon_requests_total", "Requests accepted, by verb.",
        {{"verb", std::string(to_string(static_cast<Verb>(v)))}});
  }
  request_errors_total_ = registry_.counter(
      "kar_daemon_request_errors_total",
      "Requests answered with a structured error.");
  epochs_total_ = registry_.counter(
      "kar_daemon_epochs_total",
      "Batched mutation epochs applied to the engine.");
  coalesced_events_total_ = registry_.counter(
      "kar_daemon_coalesced_events_total",
      "Link-state requests absorbed by coalescing (flaps and "
      "already-in-state transitions that cost no reconvergence).");
  snapshots_total_ =
      registry_.counter("kar_daemon_snapshots_total", "Snapshots written.");
  compactions_total_ = registry_.counter(
      "kar_daemon_compactions_total", "Posting-list compaction sweeps.");
  compacted_entries_total_ = registry_.counter(
      "kar_daemon_compacted_entries_total",
      "Stale posting entries dropped by compaction sweeps.");
  routes_gauge_ = registry_.gauge("kar_daemon_routes",
                                  "Route slots in the store (dense keys).");
  live_routes_gauge_ = registry_.gauge(
      "kar_daemon_live_routes", "Routes currently live (usable path).");
  queue_depth_gauge_ = registry_.gauge(
      "kar_daemon_queue_depth", "Mutations waiting for the next epoch.");
  held_links_gauge_ = registry_.gauge(
      "kar_daemon_held_links",
      "Link requests held open in the coalescing window.");
  snapshot_bytes_gauge_ = registry_.gauge(
      "kar_daemon_snapshot_bytes", "Size of the most recent snapshot.");
  request_seconds_ = registry_.histogram(
      "kar_daemon_request_seconds",
      "Request latency from admission to response (batched verbs include "
      "their wait for the epoch flush).",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  queue_wait_seconds_ = registry_.histogram(
      "kar_daemon_queue_wait_seconds",
      "Batched request wait from admission to the start of its epoch.",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  response_seconds_ = registry_.histogram(
      "kar_daemon_response_seconds",
      "Batched request time from the end of its epoch to its answer.",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  epoch_seconds_ = registry_.histogram(
      "kar_daemon_epoch_seconds", "Engine wall time per batched epoch.",
      {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
  epoch_ops_ = registry_.histogram(
      "kar_daemon_epoch_ops", "Mutation requests coalesced into one epoch.",
      {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0});
}

void Kard::start() {
  if (started_) return;
  started_ = true;
  flusher_ = std::thread([this] { flusher_loop(); });
}

void Kard::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (started_) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stop_flusher_ = true;
    }
    queue_cv_.notify_all();
    flusher_.join();
  }
  if (config_.snapshot_on_shutdown && !config_.snapshot_path.empty()) {
    (void)write_snapshot(config_.snapshot_path);
  }
}

std::future<std::string> Kard::submit_line(std::string_view line) {
  const Clock::time_point admitted = Clock::now();
  last_request_.store(admitted.time_since_epoch().count(),
                      std::memory_order_relaxed);
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  ParsedRequest parsed = parse_request(line);
  if (!parsed.ok) {
    request_errors_total_.inc();
    promise.set_value(error_response(parsed.error_code, parsed.error));
    return future;
  }
  requests_by_verb_[static_cast<std::size_t>(parsed.request.verb)].inc();
  switch (parsed.request.verb) {
    case Verb::kInstall:
    case Verb::kWithdraw:
    case Verb::kLinkUp:
    case Verb::kLinkDown:
      enqueue_mutation(parsed, std::move(promise), admitted);
      return future;
    default:
      break;
  }
  std::string response;
  try {
    response = handle_immediate(parsed.request);
  } catch (const std::exception& e) {
    request_errors_total_.inc();
    response = error_response("internal", e.what());
  }
  request_seconds_.observe(
      std::chrono::duration<double>(Clock::now() - admitted).count());
  promise.set_value(std::move(response));
  return future;
}

std::string Kard::execute_line(std::string_view line) {
  return submit_line(line).get();
}

std::string Kard::handle_immediate(const Request& request) {
  switch (request.verb) {
    case Verb::kPing: {
      runner::JsonObject o;
      std::shared_lock<std::shared_mutex> lock(state_mutex_);
      o.field("ok", true).field("pong", true).field("version",
                                                    engine_->version());
      return o.str();
    }
    case Verb::kQuery:
      return handle_query(request);
    case Verb::kEncode:
      return handle_encode(request);
    case Verb::kStats:
      return handle_stats();
    case Verb::kMetrics: {
      runner::JsonObject o;
      o.field("ok", true).field("metrics", prometheus_text());
      return o.str();
    }
    case Verb::kSnapshot:
      return handle_snapshot(request);
    case Verb::kCompact:
      return handle_compact();
    case Verb::kShutdown: {
      shutdown_requested_.store(true, std::memory_order_relaxed);
      runner::JsonObject o;
      o.field("ok", true).field("shutting_down", true);
      return o.str();
    }
    default:
      return error_response("internal", "verb is not immediate");
  }
}

std::string Kard::handle_query(const Request& request) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  if (request.key >= store_.size()) {
    request_errors_total_.inc();
    return error_response("unknown-key",
                          "no route with key " + std::to_string(request.key));
  }
  const ctrlplane::RouteView entry = store_.get(request.key);
  return route_response(scenario_.topology, entry, route_fields_[entry.group]);
}

std::string Kard::handle_encode(const Request& request) {
  const auto& topology = scenario_.topology;
  const auto src = topology.find(request.a);
  const auto dst = topology.find(request.b);
  if (!src || !dst) {
    request_errors_total_.inc();
    return error_response("unknown-node",
                          "unknown node: " + (!src ? request.a : request.b));
  }
  routing::EncodedRoute route;
  std::vector<topo::NodeId> core;
  // Exclusive: preview() shares the engine's SPT and memo caches with
  // apply(), so it must not overlap an epoch.
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  try {
    if (!engine_->preview(*src, *dst, route, core)) {
      return error_response("no-path", "no usable path from " + request.a +
                                           " to " + request.b);
    }
  } catch (const std::invalid_argument& e) {
    request_errors_total_.inc();
    return error_response("not-edge", e.what());
  }
  runner::JsonObject o(answer_bytes(topology, route, core) + request.a.size() +
                       request.b.size());
  o.field("ok", true).field("src", request.a).field("dst", request.b);
  append_route_fields(o, topology, route, core);
  return std::move(o).str();
}

std::string Kard::handle_stats() {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const ctrlplane::EpochStats& totals = engine_->totals();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> qlock(queue_mutex_);
    depth = pending_.size();
  }
  runner::JsonObject phases;
  phases.field("spt", totals.spt_s)
      .field("merge", totals.merge_s)
      .field("reconverge", totals.reconverge_s)
      .field("admission", totals.admission_s);
  runner::JsonObject batched;
  batched.field("queue_wait", phases_.queue_wait_s)
      .field("epoch", phases_.epoch_s)
      .field("response", phases_.response_s);
  runner::JsonObject o;
  o.field("ok", true)
      .field("topology", config_.topology)
      .field("routes", static_cast<std::uint64_t>(store_.size()))
      .field("live", static_cast<std::uint64_t>(store_.live_count()))
      .field("withdrawn", static_cast<std::uint64_t>(store_.withdrawn_count()))
      .field("version", engine_->version())
      .field("epochs", epochs_applied_.load(std::memory_order_relaxed))
      .field("queue_depth", static_cast<std::uint64_t>(depth))
      .field("held_links",
             static_cast<std::uint64_t>(
                 held_links_count_.load(std::memory_order_relaxed)))
      .field("events", static_cast<std::uint64_t>(totals.events))
      .field("reencoded", static_cast<std::uint64_t>(totals.reencoded))
      .field("installed", static_cast<std::uint64_t>(totals.installed))
      .field("tombstoned", static_cast<std::uint64_t>(totals.tombstoned))
      .field("engine_wall_s", totals.wall_s)
      .raw("engine_phases_s", phases.str())
      .field("batched_requests", phases_.requests)
      .raw("batched_phases_s", batched.str())
      .field("restored_routes", static_cast<std::uint64_t>(restored_.routes));
  return o.str();
}

std::string Kard::handle_snapshot(const Request& request) {
  const std::string& path =
      request.path.empty() ? config_.snapshot_path : request.path;
  if (path.empty()) {
    request_errors_total_.inc();
    return error_response("no-path",
                          "no snapshot path configured; use: snapshot PATH");
  }
  const std::size_t bytes = write_snapshot(path);
  runner::JsonObject o;
  o.field("ok", true)
      .field("path", path)
      .field("bytes", static_cast<std::uint64_t>(bytes));
  return o.str();
}

std::string Kard::handle_compact() {
  std::size_t dropped = 0;
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    dropped = store_.compact_postings();
  }
  compactions_total_.inc();
  compacted_entries_total_.inc(dropped);
  runner::JsonObject o;
  o.field("ok", true).field("dropped", static_cast<std::uint64_t>(dropped));
  return o.str();
}

std::size_t Kard::write_snapshot(const std::string& path) {
  const std::string& target = path.empty() ? config_.snapshot_path : path;
  if (target.empty()) {
    throw std::invalid_argument("kard: no snapshot path configured");
  }
  std::string bytes;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    bytes = serialize_store(scenario_.topology, store_, engine_->version());
  }
  write_snapshot_file(target, bytes);
  snapshots_total_.inc();
  snapshot_bytes_gauge_.set(static_cast<double>(bytes.size()));
  return bytes.size();
}

std::string Kard::prometheus_text() const {
  return registry_.snapshot().prometheus_text();
}

void Kard::enqueue_mutation(const ParsedRequest& parsed,
                            std::promise<std::string> promise,
                            Clock::time_point admitted) {
  const Request& request = parsed.request;
  PendingOp op;
  op.verb = request.verb;
  op.enqueued = admitted;
  const auto& topology = scenario_.topology;
  // Topology *structure* is immutable, so name resolution needs no lock;
  // only link states move, and those belong to the flusher.
  switch (request.verb) {
    case Verb::kInstall: {
      const auto src = topology.find(request.a);
      const auto dst = topology.find(request.b);
      if (!src || !dst) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "unknown-node", "unknown node: " + (!src ? request.a : request.b)));
        return;
      }
      if (topology.kind(*src) != topo::NodeKind::kEdgeNode ||
          topology.kind(*dst) != topo::NodeKind::kEdgeNode) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "not-edge", "install endpoints must be edge nodes"));
        return;
      }
      op.src = *src;
      op.dst = *dst;
      break;
    }
    case Verb::kWithdraw:
      op.key = request.key;  // range/state validated at flush time
      break;
    case Verb::kLinkUp:
    case Verb::kLinkDown: {
      const auto a = topology.find(request.a);
      const auto b = topology.find(request.b);
      if (!a || !b) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "unknown-node", "unknown node: " + (!a ? request.a : request.b)));
        return;
      }
      const auto link = topology.link_between(*a, *b);
      if (!link) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "not-adjacent",
            "no link between " + request.a + " and " + request.b));
        return;
      }
      op.link = *link;
      op.up = request.verb == Verb::kLinkUp;
      break;
    }
    default:
      promise.set_value(error_response("internal", "verb is not batched"));
      return;
  }
  op.promise = std::move(promise);
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    pending_.push_back(std::move(op));
    queue_depth_gauge_.set(static_cast<double>(pending_.size()));
    // Wake the flusher only when it has something new to decide: a first
    // op (it idles until one arrives) or a full batch (which closes now).
    // Otherwise it sleeps to its own next deadline and re-checks there.
    wake = pending_.size() == 1 || pending_.size() == config_.flush_max_ops;
  }
  if (wake) queue_cv_.notify_one();
}

void Kard::flusher_loop() {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.flush_interval_s));
  // The quiet gap: a stream silent this long has stopped to wait for its
  // answers, so holding the batch longer only adds latency. An epoch holds
  // requests off the state lock, so the gap also restarts when one ends:
  // a client blocked behind the epoch is not quiet.
  const Clock::duration quiet_gap = interval / 20;
  Clock::time_point last_epoch_end{};
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    // held_links_ / window_deadline_ are flusher-private; reading them
    // here (under queue_mutex_, not state_mutex_) is single-threaded.
    const bool window_open = !held_links_.empty();
    if (pending_.empty()) {
      if (stop_flusher_) break;
      if (window_open) {
        // Sleep at most until the coalescing window expires, then drain
        // it even with no new work.
        queue_cv_.wait_until(lock, window_deadline_, [this] {
          return !pending_.empty() || stop_flusher_;
        });
        if (pending_.empty() && !stop_flusher_ &&
            Clock::now() >= window_deadline_) {
          lock.unlock();
          flush_batch({}, /*drain_window=*/true);
          lock.lock();
        }
        continue;
      }
      if (config_.compact_every_epochs > 0 &&
          epochs_since_compact_ >= config_.compact_every_epochs) {
        lock.unlock();
        maybe_compact_idle();
        lock.lock();
        continue;
      }
      queue_cv_.wait(lock,
                     [this] { return !pending_.empty() || stop_flusher_; });
      continue;
    }
    // Group commit: close the batch once it is full, its oldest op has
    // waited the flush interval, an open coalescing window is due, or the
    // request stream has gone quiet; until then sleep to the nearest of
    // those deadlines (a first or a full batch also wakes us).
    Clock::time_point deadline = pending_.front().enqueued + interval;
    if (window_open && window_deadline_ < deadline) deadline = window_deadline_;
    const Clock::time_point quiet_at =
        std::max(Clock::time_point(Clock::duration(
                     last_request_.load(std::memory_order_relaxed))),
                 last_epoch_end) +
        quiet_gap;
    const Clock::time_point wake = std::min(deadline, quiet_at);
    if (pending_.size() < config_.flush_max_ops && !stop_flusher_ &&
        Clock::now() < wake) {
      queue_cv_.wait_until(lock, wake);
      continue;
    }
    std::vector<PendingOp> batch;
    batch.swap(pending_);
    queue_depth_gauge_.set(0.0);
    lock.unlock();
    flush_batch(std::move(batch),
                window_open && Clock::now() >= window_deadline_);
    last_epoch_end = Clock::now();
    lock.lock();
  }
  // Shutdown: a still-open window must drain — held promises would
  // otherwise never resolve and the netted transitions would be lost.
  lock.unlock();
  if (!held_links_.empty()) flush_batch({}, /*drain_window=*/true);
}

void Kard::maybe_compact_idle() {
  std::size_t dropped = 0;
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    dropped = store_.compact_postings();
  }
  epochs_since_compact_ = 0;
  compactions_total_.inc();
  compacted_entries_total_.inc(dropped);
}

void Kard::flush_batch(std::vector<PendingOp> batch, bool drain_window) {
  std::vector<std::pair<topo::NodeId, topo::NodeId>> installs;
  for (const PendingOp& op : batch) {
    if (op.verb == Verb::kInstall) installs.emplace_back(op.src, op.dst);
  }

  std::vector<ctrlplane::RouteKey> installed_keys;
  installed_keys.reserve(installs.size());
  ctrlplane::EpochResult result;
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    const Clock::time_point epoch_start = Clock::now();
    // Withdraw validation needs the store, so it happens here: in range,
    // not yet withdrawn, not duplicated within the batch. The seen-set
    // makes duplicate detection O(1) per op — a batch of N withdrawals of
    // the same key used to scan the accepted list per op, O(N²) across a
    // replayed burst.
    std::vector<ctrlplane::RouteKey> withdraws;
    std::unordered_set<ctrlplane::RouteKey> withdraw_seen;
    for (PendingOp& op : batch) {
      if (op.verb != Verb::kWithdraw) continue;
      if (op.key >= store_.size()) {
        op.answered = true;
        request_errors_total_.inc();
        op.promise.set_value(error_response(
            "unknown-key", "no route with key " + std::to_string(op.key)));
      } else if (store_.route(op.key).withdrawn ||
                 withdraw_seen.count(op.key)) {
        op.answered = true;
        request_errors_total_.inc();
        op.promise.set_value(error_response(
            "already-withdrawn",
            "route " + std::to_string(op.key) + " is already withdrawn"));
      } else {
        withdraw_seen.insert(op.key);
        withdraws.push_back(op.key);
      }
    }
    // Link requests enter the coalescer (netting them per link against the
    // topology's real state) and are held; with the default zero window
    // they drain again below, inside this same flush.
    for (PendingOp& op : batch) {
      if (op.verb != Verb::kLinkUp && op.verb != Verb::kLinkDown) continue;
      if (held_links_.empty()) {
        window_deadline_ =
            op.enqueued + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  config_.coalesce_window_s));
      }
      coalescer_.note(op.link, op.up, scenario_.topology.link_up(op.link));
      op.answered = true;  // the held copy answers at drain time
      held_links_.push_back(std::move(op));
    }
    // Close the window when configured off, when its deadline passed, or
    // on shutdown: apply the net transitions to the topology and let the
    // epoch below reconverge them.
    std::vector<ctrlplane::LinkChange> events;
    std::vector<PendingOp> answered_links;
    std::unordered_set<topo::LinkId> changed_links;
    if (!held_links_.empty() &&
        (config_.coalesce_window_s <= 0.0 || drain_window)) {
      const std::uint64_t absorbed_before = coalescer_.stats().absorbed;
      events = coalescer_.drain();
      for (const ctrlplane::LinkChange& event : events) {
        scenario_.topology.set_link_up(event.link, event.up);
        changed_links.insert(event.link);
      }
      coalesced_events_total_.inc(coalescer_.stats().absorbed -
                                  absorbed_before);
      answered_links.swap(held_links_);
    }
    held_links_count_.store(held_links_.size(), std::memory_order_relaxed);
    held_links_gauge_.set(static_cast<double>(held_links_.size()));

    if (!events.empty() || !installs.empty() || !withdraws.empty()) {
      epoch_active_.store(true, std::memory_order_relaxed);
      result = engine_->apply(events, installs, withdraws, &installed_keys);
      // New groups start dead (empty text) unless listed as changed.
      route_fields_.resize(store_.group_count());
      for (const ctrlplane::GroupId id : result.changed) {
        render_route_fields(id);
      }
      epoch_active_.store(false, std::memory_order_relaxed);
      epochs_applied_.fetch_add(1, std::memory_order_relaxed);
      ++epochs_since_compact_;
      epochs_total_.inc();
      epoch_seconds_.observe(result.stats.wall_s);
      if (!batch.empty()) {
        epoch_ops_.observe(static_cast<double>(batch.size()));
      }
    } else {
      result.version = engine_->version();
    }
    routes_gauge_.set(static_cast<double>(store_.size()));
    live_routes_gauge_.set(static_cast<double>(store_.live_count()));

    // Compose responses under the lock (store reads) and resolve each one
    // as soon as it is composed. Each answer records its three phases —
    // queue wait, epoch, response — which add up to its request latency.
    const Clock::time_point epoch_end = Clock::now();
    const double epoch_s =
        std::chrono::duration<double>(epoch_end - epoch_start).count();
    const auto answer = [&](PendingOp& op, std::string response) {
      const Clock::time_point done = Clock::now();
      const double queue_wait_s =
          std::chrono::duration<double>(epoch_start - op.enqueued).count();
      const double response_s =
          std::chrono::duration<double>(done - epoch_end).count();
      queue_wait_seconds_.observe(queue_wait_s);
      response_seconds_.observe(response_s);
      request_seconds_.observe(
          std::chrono::duration<double>(done - op.enqueued).count());
      ++phases_.requests;
      phases_.queue_wait_s += queue_wait_s;
      phases_.epoch_s += epoch_s;
      phases_.response_s += response_s;
      op.promise.set_value(std::move(response));
    };
    std::size_t install_index = 0;
    for (PendingOp& op : batch) {
      if (op.answered) continue;  // rejected above, or riding the window
      std::string response;
      switch (op.verb) {
        case Verb::kInstall: {
          const ctrlplane::RouteKey key = installed_keys[install_index++];
          const ctrlplane::RouteView entry = store_.get(key);
          const std::string_view route_id =
              route_id_field(route_fields_[entry.group]);
          runner::JsonObject o(kScalarAnswerBytes + route_id.size());
          o.field("ok", true)
              .field("key", static_cast<std::uint64_t>(key))
              .field("version", result.version)
              .field("live", entry.live);
          if (entry.live) o.fields(route_id);
          response = std::move(o).str();
          break;
        }
        case Verb::kWithdraw: {
          runner::JsonObject o(kScalarAnswerBytes);
          o.field("ok", true)
              .field("key", op.key)
              .field("version", result.version)
              .field("withdrawn", true);
          response = std::move(o).str();
          break;
        }
        default:
          response = error_response("internal", "unexpected batched verb");
          break;
      }
      answer(op, std::move(response));
    }
    // Held link requests answer when their window drains; the latency
    // histogram then shows the full hold (bounded by the window).
    for (PendingOp& op : answered_links) {
      runner::JsonObject o(kScalarAnswerBytes);
      o.field("ok", true)
          .field("up", scenario_.topology.link_up(op.link))
          .field("version", result.version)
          .field("changed", changed_links.count(op.link) > 0);
      answer(op, std::move(o).str());
    }
  }
}

}  // namespace kar::daemon
