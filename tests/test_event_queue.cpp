#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
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
  EXPECT_THROW(q.schedule_packet_at(1.0, EventKind::kLinkArrival, 0),
               std::logic_error);
}

// -- differential ordering test against the former priority_queue ----------

/// The scheduler the 4-ary heap replaced: std::priority_queue over
/// (time, seq) with std::function entries. Test-only ordering oracle.
class ReferenceQueue {
 public:
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  void schedule(double time, std::uint32_t id,
                const std::function<void(std::uint32_t)>& fire) {
    if (time < now_) time = now_;
    heap_.push(Entry{time, next_seq_++, [fire, id] { fire(id); }});
  }
  std::size_t run_until(double t) {
    std::size_t processed = 0;
    while (!heap_.empty() && heap_.top().time <= t) {
      Entry entry = heap_.top();
      heap_.pop();
      now_ = entry.time;
      entry.fn();
      ++processed;
    }
    if (now_ < t) now_ = t;
    return processed;
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
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

/// The production queue behind the same interface. Odd ids go in as
/// packet events (through the sink), even ids as handler events, so both
/// entry types share one ordering.
class HeapQueue : private PacketEventSink {
 public:
  HeapQueue() { q_.set_packet_sink(this); }
  [[nodiscard]] double now() const { return q_.now(); }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  void schedule(double time, std::uint32_t id,
                const std::function<void(std::uint32_t)>& fire) {
    fire_ = &fire;  // outlives the run; never reassigned while it executes
    if (id % 2 == 1) {
      q_.schedule_packet_at(time, EventKind::kLinkArrival, id);
    } else {
      q_.schedule_at(time, [this, id] { (*fire_)(id); });
    }
  }
  std::size_t run_until(double t) { return q_.run_until(t); }

 private:
  void on_packet_event(EventKind, std::uint32_t slot) override {
    (*fire_)(slot);
  }
  EventQueue q_;
  const std::function<void(std::uint32_t)>* fire_ = nullptr;
};

/// Runs one seeded schedule: a burst of initial events on a coarse time
/// grid (many exact ties), each firing event spawning 0-2 children whose
/// number and times depend only on the firing event's id — at the same
/// instant, later grid points, or in the past (clamped to now) — driven
/// by run_until steps whose boundaries land on grid points (including
/// repeats). Returns (id, time) per firing plus (-1, now) per boundary.
template <class Queue>
std::vector<std::pair<std::int64_t, double>> run_schedule(std::uint64_t seed) {
  constexpr std::uint32_t kMaxEvents = 20000;
  Queue q;
  std::vector<std::pair<std::int64_t, double>> log;
  std::uint32_t next_id = 0;
  std::function<void(std::uint32_t)> fire;
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
      q.schedule(child_time(rng), next_id++, fire);
    }
  };
  common::Rng rng(seed);
  for (int i = 0; i < 500; ++i) {
    q.schedule(0.25 * static_cast<double>(rng.below(40)), next_id++, fire);
  }
  double boundary = 0.0;
  while (!q.empty()) {
    boundary += 0.25 * static_cast<double>(rng.below(4));
    q.run_until(boundary);
    log.emplace_back(-1, q.now());
  }
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

}  // namespace
}  // namespace kar::sim
