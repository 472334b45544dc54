#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "support/testsupport.hpp"

namespace kar::sim {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, FiresInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NegativeZeroTiesWithZeroInFifoOrder) {
  // -0.0 == 0.0, so events at either time tie and fire by seq. The queue
  // orders entries by the bits of their time, so it must store -0.0 as
  // +0.0: kept as is, -0.0 would sort after every positive time.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1e-9, [&] { order.push_back(9); });
  q.schedule_at(-0.0, [&] { order.push_back(1); });
  q.schedule_at(0.0, [&] { order.push_back(2); });
  const EventQueue::TimerId timer =
      q.add_timer(EventKind::kGeneric, [&] { order.push_back(3); });
  q.arm_timer_at(timer, -0.0);
  q.schedule_at(-0.0, [&] {
    order.push_back(4);
    q.schedule_at(-0.0, [&] { order.push_back(5); });
  });
  EXPECT_EQ(q.run_until(0.0), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_FALSE(std::signbit(q.now()));
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 9}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(5.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueue, PastSchedulingClampsToNow) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(10.0, [&] {
    q.schedule_at(3.0, [&] { fired_at = q.now(); });  // in the past
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(q.run_until(3.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);  // idle-advanced
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, HandlersCanChainEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) q.schedule_in(0.1, tick);
  };
  q.schedule_at(0.0, tick);
  const std::size_t processed = q.run_all();
  EXPECT_EQ(processed, 100u);
  EXPECT_NEAR(q.now(), 9.9, 1e-9);
}

TEST(EventQueue, RunAllRespectsEventBudget) {
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule_in(1.0, forever); };
  q.schedule_at(0.0, forever);
  EXPECT_EQ(q.run_all(50), 50u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, NullHandlerThrows) {
  EventQueue q;
  EXPECT_THROW(q.schedule_at(1.0, nullptr), std::invalid_argument);
}

TEST(EventQueue, PacketEventsNeedASink) {
  EventQueue q;
  q.set_channel_count(1);
  EXPECT_THROW(q.schedule_packet_on(0, 1.0, EventKind::kLinkArrival, 0),
               std::logic_error);
}

TEST(EventQueue, ReservedSeqsFireWhereEagerSchedulingWould) {
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t first = q.reserve_seqs(2);
  q.schedule_at(1.0, [&] { order.push_back(3); });
  q.schedule_at_seq(1.0, first + 1, EventKind::kTraffic,
                    [&] { order.push_back(2); });
  q.schedule_at_seq(1.0, first, EventKind::kTraffic,
                    [&] { order.push_back(1); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_THROW(q.schedule_at_seq(2.0, first + 3, EventKind::kTraffic, [] {}),
               std::invalid_argument);
}

TEST(EventQueue, ResetReturnsToANewQueue) {
  // The same script on a queue reset mid-run and on a new queue: same
  // firing order, same clock. The reset queue had events queued, a timer
  // armed at t = 5 and seqs reserved, none of which may leak through.
  const auto script = [](EventQueue& q, std::vector<int>& order) {
    const std::uint64_t seq = q.reserve_seqs(1);
    q.schedule_at(0.5, [&order] { order.push_back(2); });
    q.schedule_at_seq(0.5, seq, EventKind::kTraffic,
                      [&order] { order.push_back(1); });
    const EventQueue::TimerId timer =
        q.add_timer(EventKind::kTransportTimer, [&order] { order.push_back(3); });
    q.arm_timer_at(timer, 0.75);
    q.run_all();
  };
  EventQueue used;
  int stale = 0;
  used.schedule_at(1.0, [&stale] { ++stale; });
  used.schedule_at(2.0, [&stale] { ++stale; });
  const EventQueue::TimerId timer =
      used.add_timer(EventKind::kTransportTimer, [&stale] { ++stale; });
  used.arm_timer_at(timer, 5.0);
  (void)used.reserve_seqs(7);
  used.run_until(1.5);
  ASSERT_EQ(stale, 1);
  used.reset();
  EXPECT_TRUE(used.empty());
  EXPECT_EQ(used.now(), 0.0);

  std::vector<int> after_reset;
  std::vector<int> fresh_order;
  EventQueue fresh;
  script(used, after_reset);
  script(fresh, fresh_order);
  EXPECT_EQ(after_reset, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(after_reset, fresh_order);
  EXPECT_EQ(used.now(), fresh.now());  // not the dropped timer's t = 5
  EXPECT_EQ(stale, 1);
}

// -- differential ordering test against the former priority_queue ----------

using FireFn = std::function<void(std::uint32_t)>;

/// The scheduler the production queue replaced: std::priority_queue over
/// (time, seq) with std::function entries, timers as eagerly scheduled
/// events behind an epoch guard (a superseded or disarmed deadline stays
/// queued and fires as a no-op) and no FIFO lane or channels. Test-only
/// ordering oracle.
class ReferenceQueue {
 public:
  static constexpr std::size_t kTimers = 8;
  static constexpr std::uint32_t kChannels = 3;
  [[nodiscard]] double now() const { return now_; }
  void schedule(double time, std::uint32_t id, const FireFn& fire) {
    push(time, [fire, id] { fire(id); });
  }
  void schedule_fifo(double time, std::uint32_t id, const FireFn& fire) {
    schedule(time, id, fire);
  }
  void schedule_on(std::uint32_t /*channel*/, double time, std::uint32_t id,
                   const FireFn& fire) {
    schedule(time, id, fire);
  }
  void arm(std::size_t timer, double time, std::uint32_t id,
           const FireFn& fire) {
    const std::uint64_t epoch = ++epoch_[timer];
    armed_[timer] = true;
    push(time, [this, timer, epoch, fire, id] {
      if (!armed_[timer] || epoch != epoch_[timer]) return;
      armed_[timer] = false;
      fire(id);
    });
  }
  void disarm(std::size_t timer) {
    armed_[timer] = false;
    ++epoch_[timer];
  }
  /// A traffic source firing ids first_id, first_id + 1, ... at the
  /// non-decreasing `times`, all queued now.
  void start_source(const std::vector<double>& times, std::uint32_t first_id,
                    const FireFn& fire) {
    for (std::size_t j = 0; j < times.size(); ++j) {
      schedule(times[j], first_id + static_cast<std::uint32_t>(j), fire);
    }
  }
  void run_until(double t) {
    while (!heap_.empty() && heap_.top().time <= t) pop_and_run();
    if (now_ < t) now_ = t;
  }
  void run_all() {
    while (!heap_.empty()) pop_and_run();
  }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  void push(double time, std::function<void()> fn) {
    if (time < now_) time = now_;
    heap_.push(Entry{time, next_seq_++, std::move(fn)});
  }
  void pop_and_run() {
    Entry entry = heap_.top();
    heap_.pop();
    now_ = entry.time;
    entry.fn();
  }
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::array<std::uint64_t, kTimers> epoch_{};
  std::array<bool, kTimers> armed_{};
};

/// The production queue behind the same interface. Odd ids go in as
/// packet events on a channel (through the sink), even ids as handler
/// events, so both entry types share one ordering; FIFO pushes are packet
/// events in the lane, channel pushes packet events on a channel, timers
/// are re-armable queue timers, and a traffic source keeps one pending
/// event on seqs it reserved at start.
class HeapQueue : private PacketEventSink {
 public:
  static constexpr std::size_t kTimers = ReferenceQueue::kTimers;
  static constexpr std::uint32_t kChannels = ReferenceQueue::kChannels;
  HeapQueue() {
    q_.set_packet_sink(this);
    q_.set_channel_count(kChannels);
    for (std::size_t k = 0; k < kTimers; ++k) {
      timers_[k] = q_.add_timer(EventKind::kTransportTimer,
                                [this, k] { (*fire_)(timer_ids_[k]); });
    }
  }
  [[nodiscard]] double now() const { return q_.now(); }
  void schedule(double time, std::uint32_t id, const FireFn& fire) {
    fire_ = &fire;  // outlives the run; never reassigned while it executes
    if (id % 2 == 1) {
      // Spread over the channels: a time before a channel's tail (ties,
      // clamped past times, later grid points) sends it to the heap.
      q_.schedule_packet_on((id / 2) % kChannels, time,
                            EventKind::kLinkArrival, id);
    } else {
      q_.schedule_at(time, [this, id] { (*fire_)(id); });
    }
  }
  void schedule_fifo(double time, std::uint32_t id, const FireFn& fire) {
    fire_ = &fire;
    q_.schedule_packet_fifo(time, EventKind::kSwitchProcess, id);
  }
  void schedule_on(std::uint32_t channel, double time, std::uint32_t id,
                   const FireFn& fire) {
    fire_ = &fire;
    q_.schedule_packet_on(channel, time, EventKind::kLinkArrival, id);
  }
  void arm(std::size_t timer, double time, std::uint32_t id,
           const FireFn& fire) {
    fire_ = &fire;
    timer_ids_[timer] = id;
    q_.arm_timer_at(timers_[timer], time);
  }
  void disarm(std::size_t timer) { q_.disarm_timer(timers_[timer]); }
  void start_source(const std::vector<double>& times, std::uint32_t first_id,
                    const FireFn& fire) {
    fire_ = &fire;
    source_times_ = times;
    source_first_id_ = first_id;
    source_first_seq_ = q_.reserve_seqs(times.size());
    schedule_source(0);
  }
  void run_until(double t) { q_.run_until(t); }
  void run_all() { q_.run_all(); }

 private:
  void schedule_source(std::size_t j) {
    if (j == source_times_.size()) return;
    q_.schedule_at_seq(source_times_[j], source_first_seq_ + j,
                       EventKind::kTraffic, [this, j] {
                         schedule_source(j + 1);
                         (*fire_)(source_first_id_ +
                                  static_cast<std::uint32_t>(j));
                       });
  }
  void on_packet_event(EventKind, std::uint32_t slot) override {
    (*fire_)(slot);
  }
  EventQueue q_;
  const FireFn* fire_ = nullptr;
  std::array<EventQueue::TimerId, kTimers> timers_{};
  std::array<std::uint32_t, kTimers> timer_ids_{};
  std::vector<double> source_times_;
  std::uint32_t source_first_id_ = 0;
  std::uint64_t source_first_seq_ = 0;
};

/// Runs one seeded schedule: a burst of initial events on a coarse time
/// grid (many exact ties), each firing event spawning 0-2 children whose
/// kind and time depend only on the firing event's id — plain events at
/// the same instant, later grid points, or in the past (clamped to now);
/// FIFO-lane pushes a fixed 0, 0.25 or 0.5 after now (so some fall back to
/// the heap); pushes on one of a few channels at the plain events' times
/// (so some go back in time on their channel and fall back to the heap);
/// arms of one of a few timers, which re-arm later or earlier (an RTO
/// shrink) than their current deadline; and disarms. Every fourth event of
/// the initial burst goes on a channel too. Midway through the initial
/// burst a traffic source starts 300 events at sorted grid times (ties with
/// each other and with every other kind of entry). Driven
/// by run_until steps whose boundaries land on grid points (including
/// repeats), then a drain after every timer's deadline shrank. Returns
/// (id, time) per firing plus (-1, now) per boundary and (-2, now) after
/// the drain.
template <class Queue>
std::vector<std::pair<std::int64_t, double>> run_schedule(std::uint64_t seed) {
  constexpr std::uint32_t kMaxEvents = 20000;
  Queue q;
  std::vector<std::pair<std::int64_t, double>> log;
  std::uint32_t next_id = 0;
  FireFn fire;
  const auto child_time = [&q](common::Rng& rng) {
    switch (rng.below(4)) {
      case 0: return q.now();                                      // tie
      case 1: return q.now() - 0.25;                               // past
      default: return q.now() + 0.25 * static_cast<double>(rng.below(6));
    }
  };
  fire = [&](std::uint32_t id) {
    log.emplace_back(id, q.now());
    common::Rng rng(common::derive_seed(seed, id));
    const std::uint64_t children = rng.below(3);
    for (std::uint64_t c = 0; c < children && next_id < kMaxEvents; ++c) {
      const std::size_t timer = rng.below(Queue::kTimers);
      switch (rng.below(6)) {
        case 0:
          q.schedule_fifo(q.now() + 0.25 * static_cast<double>(rng.below(3)),
                          next_id++, fire);
          break;
        case 1:
          q.arm(timer, child_time(rng), next_id++, fire);
          break;
        case 2:
          q.disarm(timer);
          break;
        case 3: {
          const auto channel =
              static_cast<std::uint32_t>(rng.below(Queue::kChannels));
          q.schedule_on(channel, child_time(rng), next_id++, fire);
          break;
        }
        default:
          q.schedule(child_time(rng), next_id++, fire);
      }
    }
  };
  common::Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    if (i == 250) {
      common::Rng source_rng(common::derive_seed(seed, kMaxEvents));
      std::vector<double> times(300);
      for (double& t : times) {
        t = 0.25 * static_cast<double>(source_rng.below(200));
      }
      std::sort(times.begin(), times.end());
      q.start_source(times, kMaxEvents + 100, fire);
    }
    const double time = 0.25 * static_cast<double>(rng.below(40));
    if (i % 4 == 3) {
      q.schedule_on(static_cast<std::uint32_t>(i % Queue::kChannels), time,
                    next_id++, fire);
    } else {
      q.schedule(time, next_id++, fire);
    }
  }
  for (double boundary = 0.0; boundary < 60.0;) {
    boundary += 0.25 * static_cast<double>(rng.below(4));
    q.run_until(boundary);
    log.emplace_back(-1, q.now());
  }
  // Stop spawning and shrink every timer's deadline before the drain: the
  // eager queue still fires each superseded deadline as a no-op, so the
  // clock must end on the latest deadline ever armed.
  next_id = kMaxEvents;
  for (std::uint32_t k = 0; k < Queue::kTimers; ++k) {
    q.arm(k, q.now() + 2.0, kMaxEvents + 2 * k, fire);
    q.arm(k, q.now() + 0.5, kMaxEvents + 2 * k + 1, fire);
  }
  q.run_all();
  log.emplace_back(-2, q.now());
  return log;
}

TEST(EventQueue, FourAryHeapFiresExactlyLikeThePriorityQueueReference) {
  const std::uint64_t base = testsupport::seed_or(20261017);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t seed = common::derive_seed(base, i);
    const auto expected = run_schedule<ReferenceQueue>(seed);
    const auto actual = run_schedule<HeapQueue>(seed);
    ASSERT_GT(expected.size(), 500u);
    ASSERT_EQ(actual, expected) << "seed " << seed;
  }
}

/// Records each packet event's slot.
class SlotLog : public PacketEventSink {
 public:
  void on_packet_event(EventKind, std::uint32_t slot) override {
    slots.push_back(slot);
  }
  std::vector<std::uint32_t> slots;
};

TEST(EventQueue, PendingAndEmptyCountChainedChannelEntries) {
  EventQueue q;
  SlotLog log;
  q.set_packet_sink(&log);
  q.set_channel_count(2);
  q.schedule_packet_on(0, 1.0, EventKind::kLinkArrival, 10);
  q.schedule_packet_on(0, 2.0, EventKind::kLinkArrival, 11);
  q.schedule_packet_on(0, 2.0, EventKind::kLinkArrival, 12);
  q.schedule_packet_on(1, 1.5, EventKind::kLinkArrival, 20);
  q.schedule_packet_on(0, 0.5, EventKind::kLinkArrival, 13);  // to the heap
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 5u);
  EXPECT_THROW(q.set_channel_count(4), std::logic_error);
  EXPECT_THROW(q.schedule_packet_on(2, 1.0, EventKind::kLinkArrival, 0),
               std::out_of_range);
  EXPECT_EQ(q.pending(), 5u);
  for (std::size_t left = 4; q.step(); --left) EXPECT_EQ(q.pending(), left);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(log.slots, (std::vector<std::uint32_t>{13, 10, 20, 11, 12}));
  // Drained channels take entries again, recycling their nodes.
  q.set_channel_count(1);
  q.schedule_packet_on(0, 3.0, EventKind::kLinkArrival, 30);
  EXPECT_EQ(q.pending(), 1u);
  q.run_all();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(log.slots.back(), 30u);
}

TEST(EventQueue, ReArmedTimerKeepsOneEntryAndFiresAtItsLastDeadline) {
  EventQueue q;
  std::vector<double> fired;
  const EventQueue::TimerId rto =
      q.add_timer(EventKind::kTransportTimer, [&] { fired.push_back(q.now()); });
  q.arm_timer_at(rto, 1.0);
  for (int i = 1; i <= 100; ++i) q.arm_timer_at(rto, 1.0 + 0.01 * i);  // later
  EXPECT_EQ(q.pending(), 1u);
  q.arm_timer_at(rto, 0.2);  // shrink
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run_until(0.5), 1u);
  EXPECT_EQ(fired, (std::vector<double>{0.2}));
  EXPECT_TRUE(q.empty());
  // A drain leaves the clock where an eager queue firing the superseded
  // deadlines as no-ops would: at the latest deadline ever armed (2.0).
  EXPECT_EQ(q.run_all(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, DisarmedAndRemovedTimersNeverFire) {
  EventQueue q;
  int a_fired = 0;
  int b_fired = 0;
  const EventQueue::TimerId a =
      q.add_timer(EventKind::kLinkState, [&] { ++a_fired; });
  const EventQueue::TimerId b =
      q.add_timer(EventKind::kLinkState, [&] { ++b_fired; });
  q.arm_timer_at(a, 1.0);
  q.arm_timer_at(b, 2.0);
  q.disarm_timer(a);
  q.disarm_timer(a);  // idempotent
  q.remove_timer(b);
  EXPECT_TRUE(q.empty());
  q.run_all();
  EXPECT_EQ(a_fired + b_fired, 0);
  // A removed timer's id is reused by the next add_timer.
  int c_fired = 0;
  EXPECT_EQ(q.add_timer(EventKind::kLinkState, [&] { ++c_fired; }), b);
  q.arm_timer_at(b, 3.0);
  q.run_all();
  EXPECT_EQ(c_fired, 1);
  EXPECT_THROW((void)q.add_timer(EventKind::kLinkState, nullptr),
               std::invalid_argument);
}

TEST(EventQueue, ProfileAccountsTimersUnderTheirKind) {
  EventQueue q;
  EventLoopProfile profile;
  q.set_profile(&profile);
  const EventQueue::TimerId t = q.add_timer(EventKind::kTransportTimer, [] {});
  q.arm_timer_at(t, 1.0);
  q.arm_timer_at(t, 2.0);
  q.run_all();
  const auto& timer_stats =
      profile.kinds[static_cast<std::size_t>(EventKind::kTransportTimer)];
  EXPECT_EQ(timer_stats.count, 1u);
  EXPECT_EQ(profile.total_events(), 1u);
}

}  // namespace
}  // namespace kar::sim
