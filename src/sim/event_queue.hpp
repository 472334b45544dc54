// Discrete-event scheduler. Events fire in timestamp order; ties fire in
// scheduling order (FIFO), which keeps simulations deterministic.
//
// Layout: a 4-ary min-heap of 24-byte trivially copyable entries
// {time, seq, slot, kind}, ordered by (time, seq) — seq is the scheduling
// counter, so the firing order is a strict total order fixed at schedule
// time, whatever the heap's shape. A generic event's slot indexes a slab of
// std::function handlers recycled through a free list; a packet event's
// slot is a packet-pool index handed back to the attached PacketEventSink
// (sim::Network's per-hop link-arrival / switch / edge events), so the
// per-hop path carries no closure at all.
//
// Observability: every event carries a coarse EventKind tag; attaching an
// EventLoopProfile makes step() account each fired event's count and wall
// time per kind (the event-kind breakdown behind `--profile`). With no
// profile attached the only cost is the one-byte tag.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <type_traits>
#include <vector>

namespace kar::sim {

/// Coarse classification of scheduled events, for the observability
/// profile. kGeneric is the untagged default.
enum class EventKind : std::uint8_t {
  kGeneric = 0,
  kLinkArrival,     ///< Packet arriving at the far end of a link.
  kSwitchProcess,   ///< Core switch processing latency before transmit.
  kEdgeProcess,     ///< Edge node re-injection (re-encode / bounce).
  kLinkState,       ///< Link failure / repair / detection firing.
  kTraffic,         ///< Traffic-source injections and flow start/stop.
  kTransportTimer,  ///< Transport-layer timers (TCP RTO).
  kBatchFlush,      ///< Same-instant sweep of staged batched arrivals.
};
inline constexpr std::size_t kEventKindCount = 8;

[[nodiscard]] std::string_view to_string(EventKind kind);

/// Per-kind count + wall-time accounting for an event loop; merges by
/// addition (a campaign profile is the fold of its runs' profiles).
struct EventLoopProfile {
  struct KindStats {
    std::uint64_t count = 0;
    double wall_s = 0.0;
  };
  std::array<KindStats, kEventKindCount> kinds{};

  [[nodiscard]] std::uint64_t total_events() const noexcept {
    std::uint64_t total = 0;
    for (const KindStats& k : kinds) total += k.count;
    return total;
  }
  [[nodiscard]] double total_wall_s() const noexcept {
    double total = 0.0;
    for (const KindStats& k : kinds) total += k.wall_s;
    return total;
  }
  void merge(const EventLoopProfile& other) noexcept {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      kinds[i].count += other.kinds[i].count;
      kinds[i].wall_s += other.kinds[i].wall_s;
    }
  }
};

/// Receiver of handler-free packet events: step() hands each one's kind
/// and slot back here (sim::Network, which owns the pooled packet and the
/// hop fields its pending event needs).
class PacketEventSink {
 public:
  virtual void on_packet_event(EventKind kind, std::uint32_t slot) = 0;

 protected:
  ~PacketEventSink() = default;
};

/// A minimal deterministic event queue.
class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Current simulation time in seconds (starts at 0).
  [[nodiscard]] double now() const noexcept { return now_; }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Schedules `fn` at absolute time `time` (>= now, else clamped to now).
  void schedule_at(double time, Handler fn) {
    schedule_at(time, EventKind::kGeneric, std::move(fn));
  }
  void schedule_at(double time, EventKind kind, Handler fn);

  /// Schedules `fn` after `delay` seconds (>= 0).
  void schedule_in(double delay, Handler fn) { schedule_at(now_ + delay, std::move(fn)); }
  void schedule_in(double delay, EventKind kind, Handler fn) {
    schedule_at(now_ + delay, kind, std::move(fn));
  }

  /// Schedules a packet event at `time` (clamped like schedule_at): when it
  /// fires, the attached sink receives (kind, slot). Same (time, seq)
  /// ordering as handler events. Throws std::logic_error with no sink.
  void schedule_packet_at(double time, EventKind kind, std::uint32_t slot);

  /// Attaches the sink that receives packet events (nullptr detaches).
  void set_packet_sink(PacketEventSink* sink) noexcept { sink_ = sink; }

  /// Attaches (or detaches, with nullptr) per-kind event accounting. The
  /// profile must outlive its attachment; timing costs two clock reads per
  /// event, so attach only when profiling is wanted.
  void set_profile(EventLoopProfile* profile) noexcept { profile_ = profile; }

  /// Runs the next event. Returns false when the queue is empty.
  bool step();

  /// Runs every event with timestamp <= `t`, then advances now to `t`
  /// (even if idle). Returns the number of events processed.
  std::size_t run_until(double t);

  /// Runs until the queue drains or `max_events` were processed.
  /// Returns the number of events processed.
  std::size_t run_all(std::size_t max_events = static_cast<std::size_t>(-1));

 private:
  struct Entry {
    double time;
    std::uint64_t seq;   ///< Tiebreak: FIFO among same-time events.
    std::uint32_t slot;  ///< Handler-slab index, or packet slot if `packet`.
    EventKind kind;
    bool packet;
  };
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) == 24);

  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  void push(const Entry& entry);
  /// Removes and returns the earliest entry. Precondition: !empty().
  Entry pop();
  /// Runs one popped entry's handler or hands it to the sink.
  void dispatch(const Entry& entry);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  EventLoopProfile* profile_ = nullptr;
  PacketEventSink* sink_ = nullptr;
  std::vector<Entry> heap_;  ///< 4-ary min-heap by earlier().
  std::vector<Handler> handlers_;
  std::vector<std::uint32_t> free_handlers_;
};

}  // namespace kar::sim
