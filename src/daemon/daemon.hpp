// kard: the long-lived KAR controller daemon (docs/daemon.md).
//
// Kard wraps the incremental control plane (ctrlplane::ReconvergenceEngine
// + RouteStore) as a service:
//
//   * Request admission — every request line enters through submit_line().
//     Read verbs (query/stats/metrics/ping) execute immediately under a
//     shared lock; exclusive immediate verbs (encode/snapshot/compact)
//     take the state lock alone; mutating verbs (install/withdraw/
//     link-up/link-down) are *batched*: they join the pending epoch and
//     their futures resolve when it flushes.
//   * Group commit — a dedicated flusher thread drains the pending ops
//     as ONE atomically-versioned engine epoch, closing the batch on the
//     first of: the batch reaches flush_max_ops; its oldest op has waited
//     flush_interval (the latency bound); an open coalescing window
//     reaches its deadline; or the request stream has gone quiet — no
//     request of any verb for flush_interval / 20, counted from the end of
//     the last epoch at the earliest (an epoch holds requests off the
//     state lock, so a client blocked behind it is not quiet). A client
//     that stops to wait for its answers (a full pipelining window, a
//     synchronous caller) thus gets them after the quiet gap instead of
//     the full timer, while a steady stream keeps batching up to the
//     timer. Within an epoch, link events are coalesced per link to their
//     final state (a flap inside one batch costs zero reconvergence),
//     installs and withdrawals ride the same version. So a burst of N
//     requests costs one SPT advance, not N.
//   * Cross-epoch link coalescing — with coalesce_window_s > 0, link
//     transitions are additionally *held* in a ctrlplane::LinkCoalescer
//     for a bounded-staleness window opened by the first held transition:
//     a flap storm spanning many batches nets to at most one event per
//     link per window and costs one reconvergence when the window drains.
//     Held requests answer at the drain (latency bounded by the window);
//     installs and withdrawals keep flushing by group commit. The
//     default window of 0 drains every batch — exactly the per-batch
//     behavior above.
//   * Zero-downtime reconvergence — queries take a shared lock, epochs an
//     exclusive one: a query issued during an epoch waits for that epoch
//     (bounded by the epoch wall time) instead of being refused; the
//     daemon never stops answering while reconverging.
//   * Durability — snapshot/restore via daemon/snapshot.hpp: `snapshot`
//     on demand, automatic snapshot on graceful shutdown, restore at boot
//     (--restore) resuming at the recorded epoch version without a full
//     re-encode.
//   * Background compaction — between epochs, when the queue is idle, the
//     flusher eagerly compacts the store's posting lists every
//     compact_every_epochs epochs.
//   * Telemetry — kar_daemon_* metric families (requests, errors, epochs,
//     batch sizes, request/epoch latency, the queue-wait and response
//     phases of batched requests, queue depth, routes, snapshots,
//     compactions) plus the engine's kar_ctrlplane_* families on one
//     registry, scrape-able via the `metrics` verb or the HTTP endpoint
//     in daemon/server.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "ctrlplane/coalesce.hpp"
#include "ctrlplane/engine.hpp"
#include "ctrlplane/route_store.hpp"
#include "daemon/protocol.hpp"
#include "daemon/snapshot.hpp"
#include "obs/metrics.hpp"
#include "topology/scenario.hpp"

namespace kar::daemon {

struct KardConfig {
  /// Topology name: fig1, fig2 or rnp28.
  std::string topology = "fig2";
  /// Attach one host edge per core switch (the endpoint pool large route
  /// tables draw from). Must match across snapshot/restore runs — the
  /// snapshot fingerprint rejects a mismatch.
  bool host_edges = true;
  /// Epoch admission cap: flush as soon as this many ops are pending.
  std::size_t flush_max_ops = 4096;
  /// Bounded-latency flush timer: flush once the oldest pending op has
  /// waited this long, even if the batch is small. A twentieth of it is
  /// the quiet gap that closes a batch early (see the file comment).
  double flush_interval_s = 0.002;
  /// Cross-epoch link-coalescing window (seconds): link transitions are
  /// held and netted per link until the window (opened by the first held
  /// transition) expires, so a flap storm costs one reconvergence per
  /// window instead of one per batch. Held link requests answer at the
  /// drain. 0 (default) = drain with every batch (per-batch coalescing
  /// only; see the file comment).
  double coalesce_window_s = 0.0;
  /// Eagerly compact posting lists every N epochs when idle (0 = never).
  std::size_t compact_every_epochs = 64;
  /// Snapshot file ("" = stateless daemon; `snapshot` verb then needs an
  /// explicit path argument).
  std::string snapshot_path;
  /// Restore from snapshot_path at construction.
  bool restore = false;
  /// Write a final snapshot (to snapshot_path) during stop().
  bool snapshot_on_shutdown = true;
  /// Enable the metrics registry (disabled = inert handles).
  bool metrics = true;
};

class Kard {
 public:
  /// Builds the topology, optionally restores the snapshot, and registers
  /// metrics. Throws on an unknown topology or a bad snapshot.
  explicit Kard(KardConfig config);
  ~Kard();

  Kard(const Kard&) = delete;
  Kard& operator=(const Kard&) = delete;

  /// Starts the epoch flusher thread. Call once before submitting.
  void start();

  /// Drains pending ops (flushing a final epoch if needed), stops the
  /// flusher, and writes the shutdown snapshot when configured. Idempotent.
  void stop();

  /// Full request path: parse, dispatch, respond. Immediate verbs resolve
  /// the future before returning; batched verbs resolve it at epoch flush.
  [[nodiscard]] std::future<std::string> submit_line(std::string_view line);

  /// Synchronous convenience around submit_line().
  [[nodiscard]] std::string execute_line(std::string_view line);

  /// True once a `shutdown` request was accepted (server loops poll this).
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  /// True while an engine epoch is being applied (benches use this to
  /// count queries answered *during* reconvergence).
  [[nodiscard]] bool epoch_in_progress() const noexcept {
    return epoch_active_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t epochs_applied() const noexcept {
    return epochs_applied_.load(std::memory_order_relaxed);
  }

  /// Serializes the store and writes it to `path` (or the configured
  /// snapshot path when empty). Returns the snapshot byte count. Throws
  /// when neither path is set or on I/O failure.
  std::size_t write_snapshot(const std::string& path = "");

  /// Current Prometheus exposition text for every registered family.
  [[nodiscard]] std::string prometheus_text() const;

  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return scenario_.topology;
  }
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const SnapshotInfo& restored() const noexcept {
    return restored_;
  }
  [[nodiscard]] const KardConfig& config() const noexcept { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One batched mutation waiting for the next epoch, already resolved
  /// against the topology (names → handles) at admission time.
  struct PendingOp {
    Verb verb = Verb::kInstall;
    topo::LinkId link = topo::kInvalidLink;
    bool up = false;
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    ctrlplane::RouteKey key = 0;
    /// Promise already fulfilled (validation rejected the op, or a link op
    /// moved into the coalescing window) — the response loop skips it.
    bool answered = false;
    std::promise<std::string> promise;
    Clock::time_point enqueued;
  };

  void register_metrics();
  /// Immediate verbs (shared or exclusive state lock as needed).
  std::string handle_immediate(const Request& request);
  std::string handle_query(const Request& request);
  std::string handle_encode(const Request& request);
  std::string handle_stats();
  std::string handle_snapshot(const Request& request);
  std::string handle_compact();
  /// Validates and enqueues a mutating verb admitted at `admitted`;
  /// fulfills the promise with an error immediately when resolution fails.
  void enqueue_mutation(const ParsedRequest& parsed,
                        std::promise<std::string> promise,
                        Clock::time_point admitted);
  void flusher_loop();
  /// Applies one batch as an epoch. `drain_window` forces the coalescing
  /// window closed (deadline reached or shutdown); a zero-window config
  /// drains unconditionally. May be called with an empty batch to drain
  /// the window alone.
  void flush_batch(std::vector<PendingOp> batch, bool drain_window);
  void maybe_compact_idle();
  /// Renders group `id`'s entry of route_fields_ from the store with
  /// append_route_fields (empty while the group is dead).
  void render_route_fields(ctrlplane::GroupId id);

  KardConfig config_;
  topo::Scenario scenario_;
  ctrlplane::RouteStore store_;
  std::unique_ptr<ctrlplane::ReconvergenceEngine> engine_;
  SnapshotInfo restored_;

  /// Guards topology link states, store, engine and route_fields_.
  /// Readers (query/stats/snapshot serialization) shared; epochs/encode/
  /// compact exclusive.
  mutable std::shared_mutex state_mutex_;

  /// Per endpoint group, the route fields its `query` answers end with
  /// (`"route_id":…,"path":[…]`; empty while the group is dead). Every
  /// route of a group carries the same encoding, so the text is rendered
  /// once per change — at construction (covering a restore) and for each
  /// group an epoch lists as changed — not once per answer.
  std::vector<std::string> route_fields_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<PendingOp> pending_;   // guarded by queue_mutex_
  bool stop_flusher_ = false;        // guarded by queue_mutex_
  std::thread flusher_;
  bool started_ = false;
  bool stopped_ = false;

  /// Admission time of the latest request of any verb, as
  /// Clock::duration ticks: the flusher's quiet-stream signal.
  std::atomic<Clock::rep> last_request_{0};

  /// Per-phase sums over the batched requests answered by an epoch (the
  /// three add up to their request latency). Guarded by state_mutex_.
  struct RequestPhases {
    std::uint64_t requests = 0;
    double queue_wait_s = 0.0;
    double epoch_s = 0.0;
    double response_s = 0.0;
  };
  RequestPhases phases_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> epoch_active_{false};
  std::atomic<std::uint64_t> epochs_applied_{0};
  std::size_t epochs_since_compact_ = 0;  // flusher thread only

  // Cross-epoch link-coalescing window (all flusher thread only, except
  // the atomic mirror of the held count that stats/tests read).
  ctrlplane::LinkCoalescer coalescer_;
  std::vector<PendingOp> held_links_;
  Clock::time_point window_deadline_{};  // valid while held_links_ non-empty
  std::atomic<std::size_t> held_links_count_{0};

  obs::MetricsRegistry registry_;
  std::vector<obs::Counter> requests_by_verb_;  // indexed by Verb value
  obs::Counter request_errors_total_;
  obs::Counter epochs_total_;
  obs::Counter coalesced_events_total_;
  obs::Counter snapshots_total_;
  obs::Counter compactions_total_;
  obs::Counter compacted_entries_total_;
  obs::Gauge routes_gauge_;
  obs::Gauge live_routes_gauge_;
  obs::Gauge queue_depth_gauge_;
  obs::Gauge held_links_gauge_;
  obs::Gauge snapshot_bytes_gauge_;
  obs::Histogram request_seconds_;
  obs::Histogram queue_wait_seconds_;
  obs::Histogram response_seconds_;
  obs::Histogram epoch_seconds_;
  obs::Histogram epoch_ops_;
};

}  // namespace kar::daemon
