// Discrete-event scheduler. Events fire in timestamp order; ties fire in
// scheduling order (FIFO), which keeps simulations deterministic.
//
// Every entry is a 24-byte trivially copyable {time, seq, slot, kind,
// target}, ordered by (time, seq) — seq is the scheduling counter (or one
// reserved from it earlier, see reserve_seqs), so the firing order is a
// strict total order fixed at schedule time, whatever structure holds the
// entry. The queue holds only live events, in four places, and step()
// fires the earliest of their four heads:
//   * a 4-ary min-heap for events at arbitrary times;
//   * a FIFO lane for callers whose successive times never decrease (the
//     simulator's fixed-latency switch/edge hops): a ring buffer already
//     in (time, seq) order, so a push and a pop cost O(1); a push that
//     would break that order goes to the heap instead;
//   * channels: numbered FIFOs with the lane's rule, one per source that
//     delivers in the order it sends (the simulator's link directions).
//     Each channel is a linked list through one node slab whose nodes are
//     recycled through a free list, and only the head of each non-empty
//     channel sits in a small 4-ary heap; popping a head replaces it in
//     place with its channel's next entry. A push earlier than its
//     channel's tail goes to the general heap;
//   * a position-indexed 4-ary heap of re-armable timers (TCP RTO, the
//     reactive controller's debounce): one entry per armed timer, moved in
//     place when re-armed and removed when disarmed, so a superseded
//     deadline never sits in the queue.
// A generic event's slot indexes a slab of std::function handlers recycled
// through a free list; a packet event's slot is a packet-pool index handed
// back to the attached PacketEventSink (sim::Network's per-hop events), so
// the per-hop path carries no closure at all; a timer's slot is its id.
//
// Observability: every event carries a coarse EventKind tag; attaching an
// EventLoopProfile makes step() account each fired event's count and wall
// time per kind (the event-kind breakdown behind `--profile`). With no
// profile attached the only cost is the one-byte tag.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
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
};
inline constexpr std::size_t kEventKindCount = 7;

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
  using TimerId = std::uint32_t;

  /// Current simulation time in seconds (starts at 0).
  [[nodiscard]] double now() const noexcept { return now_; }

  /// True when no event is queued (channels included) and no timer is armed.
  [[nodiscard]] bool empty() const noexcept { return pending() == 0; }
  /// Queued events (every entry of every channel included) plus armed timers.
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + lane_size_ + chained_ + timer_heap_.size();
  }

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

  /// Reserves `count` consecutive seqs and returns the first. A source that
  /// keeps one pending event, scheduling the next when the current one
  /// fires, gives each the seq of its block with schedule_at_seq.
  [[nodiscard]] std::uint64_t reserve_seqs(std::uint64_t count) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  /// schedule_at with a seq from reserve_seqs, each used once: the event
  /// fires exactly where one scheduled at reserve time would have, provided
  /// it is scheduled before that time passes. Throws std::invalid_argument
  /// for a seq that was never reserved.
  void schedule_at_seq(double time, std::uint64_t seq, EventKind kind,
                       Handler fn);

  /// Schedules a packet event at `time` (clamped like schedule_at): when it
  /// fires, the attached sink receives (kind, slot). Same (time, seq)
  /// ordering as handler events. Meant for callers whose successive times
  /// never decrease, such as a fixed delay after now(): the event joins the
  /// FIFO lane. One that would fire before the lane's tail goes to the heap
  /// instead, so the firing order is the same either way. Throws
  /// std::logic_error with no sink.
  void schedule_packet_fifo(double time, EventKind kind, std::uint32_t slot);

  /// Sizes the channels to `count` (channel ids 0 .. count - 1). Throws
  /// std::logic_error while any channel holds an entry.
  void set_channel_count(std::size_t count);

  /// schedule_packet_fifo on channel `channel`: the event joins that
  /// channel's FIFO, or the heap when it would fire before the channel's
  /// tail. Throws std::out_of_range for a channel >= the channel count.
  void schedule_packet_on(std::uint32_t channel, double time, EventKind kind,
                          std::uint32_t slot);

  /// Registers a re-armable timer that runs `fn` (accounted as `kind`)
  /// each time it fires. It starts disarmed. Ids of removed timers are
  /// reused. Throws std::invalid_argument on a null handler.
  TimerId add_timer(EventKind kind, Handler fn);

  /// Arms timer `id` to fire at `time` (clamped like schedule_at),
  /// replacing any earlier deadline. The arm draws the next seq, so the
  /// timer fires exactly where an event scheduled by this call would.
  void arm_timer_at(TimerId id, double time);

  /// Disarms timer `id` (no-op when it is not armed).
  void disarm_timer(TimerId id);

  /// Disarms timer `id` and releases its handler and id. Call it before
  /// whatever the handler refers to dies, never from the handler itself.
  void remove_timer(TimerId id);

  /// Attaches the sink that receives packet events (nullptr detaches).
  void set_packet_sink(PacketEventSink* sink) noexcept { sink_ = sink; }

  /// Back to a new queue's state: no queued event (their handlers are
  /// destroyed unrun), no timer, now() and the latest armed deadline 0, and
  /// the seq counter at 0. The channel count, the packet sink and the
  /// storage stay; the profile is detached.
  void reset() noexcept;

  /// Attaches (or detaches, with nullptr) per-kind event accounting. The
  /// profile must outlive its attachment; timing costs two clock reads per
  /// event, so attach only when profiling is wanted.
  void set_profile(EventLoopProfile* profile) noexcept { profile_ = profile; }

  /// Runs the next event. Returns false when nothing is queued or armed;
  /// then now() moves up to the latest deadline any timer was ever armed
  /// for, which is where a queue that left superseded deadlines in place
  /// (and fired them as no-ops) would stop after draining.
  bool step();

  /// Runs every event with timestamp <= `t`, then advances now to `t`
  /// (even if idle). Returns the number of events processed.
  std::size_t run_until(double t);

  /// Runs until the queue drains or `max_events` were processed.
  /// Returns the number of events processed.
  std::size_t run_all(std::size_t max_events = static_cast<std::size_t>(-1));

 private:
  /// What a fired entry's slot refers to.
  enum class Target : std::uint8_t { kHandler, kPacket, kTimer };

  struct Entry {
    double time;
    std::uint64_t seq;   ///< Tiebreak: FIFO among same-time events.
    std::uint32_t slot;  ///< Handler-slab index, packet slot or timer id.
    EventKind kind;
    Target target;
  };
  static_assert(std::is_trivially_copyable_v<Entry> && sizeof(Entry) == 24);

  static constexpr std::uint32_t kDisarmed = ~std::uint32_t{0};
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};
  /// One channel entry: a link of its channel's list, or of the free list.
  struct Node {
    Entry entry;
    std::uint32_t next;     ///< Next node of the list, or kNoNode.
    std::uint32_t channel;  ///< Owning channel while linked into one.
  };
  static_assert(std::is_trivially_copyable_v<Node> && sizeof(Node) == 32);
  struct Timer {
    Handler fn;
    EventKind kind = EventKind::kGeneric;
    std::uint32_t pos = kDisarmed;  ///< Index in timer_heap_.
  };

  /// An entry's (time, seq) as one 128-bit integer. Every queued time is
  /// >= +0.0 (clamped to now, with -0.0 normalised to +0.0; see
  /// clamp_time), and the bit patterns of non-negative doubles order like
  /// their values, so comparing keys compares (time, seq) with one
  /// two-word compare and no branch.
  [[nodiscard]] static unsigned __int128 key(const Entry& e) noexcept {
    return (static_cast<unsigned __int128>(std::bit_cast<std::uint64_t>(e.time))
            << 64) |
           e.seq;
  }
  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) noexcept {
    return key(a) < key(b);
  }
  /// `time` clamped to now (no scheduling into the past), and +0.0 for
  /// -0.0, which key() would otherwise order after every other time.
  [[nodiscard]] double clamp_time(double time) const noexcept {
    return time < now_ ? now_ : time + 0.0;
  }
  /// 4-ary sift of `entry` from hole `i` of `heap`; `place(i, e)` stores e
  /// at i (the timer heap also records the position).
  template <class Place>
  static void sift_up(std::vector<Entry>& heap, std::size_t i, Entry entry,
                      Place place);
  template <class Place>
  static void sift_down(std::vector<Entry>& heap, std::size_t i, Entry entry,
                        Place place);

  /// A handler entry for `fn` at `time` (clamped to now) with `seq`.
  Entry handler_entry(double time, std::uint64_t seq, EventKind kind,
                      Handler fn);
  /// A packet entry at `time` (clamped to now), drawing the next seq.
  /// Throws std::logic_error with no sink attached.
  Entry packet_entry(double time, EventKind kind, std::uint32_t slot);
  static void push_heap(std::vector<Entry>& heap, const Entry& entry);
  static void pop_heap(std::vector<Entry>& heap);
  void push_lane(const Entry& entry);
  /// Pops the head of the earliest channel into `out`; its next entry, if
  /// any, takes the head's place in channel_heap_.
  void pop_channel(Entry& out);
  /// Stores `entry` at `i` of the timer heap and restores heap order.
  void place_timer(std::size_t i, const Entry& entry);
  void pop_timer();
  /// Removes the earliest entry into `out` when its time is <= `limit`.
  bool pop_until(double limit, Entry& out);
  /// Advances the clock to `entry`, runs it and accounts it.
  void fire(const Entry& entry);
  /// Runs a popped entry's handler or timer, or hands it to the sink.
  void dispatch(const Entry& entry);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  double latest_arm_ = 0.0;  ///< Latest deadline any timer was armed for.
  EventLoopProfile* profile_ = nullptr;
  PacketEventSink* sink_ = nullptr;
  std::vector<Entry> heap_;  ///< 4-ary min-heap by earlier().
  std::vector<Entry> lane_;  ///< Ring buffer; capacity a power of two.
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  /// Per channel, its last node (kNoNode when empty).
  std::vector<std::uint32_t> channel_tail_;
  std::vector<Node> nodes_;  ///< Slab of channel nodes.
  std::uint32_t free_node_ = kNoNode;  ///< Head of the slab's free list.
  std::size_t chained_ = 0;            ///< Entries linked into channels.
  /// 4-ary min-heap of channel heads; an entry's slot is its node index.
  std::vector<Entry> channel_heap_;
  std::vector<Entry> timer_heap_;  ///< 4-ary min-heap of armed timers.
  /// A deque so a firing handler stays put while it adds timers.
  std::deque<Timer> timers_;
  std::vector<TimerId> free_timers_;
  std::vector<Handler> handlers_;
  std::vector<std::uint32_t> free_handlers_;
};

}  // namespace kar::sim
