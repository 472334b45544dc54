#include "sim/event_queue.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

namespace kar::sim {

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kGeneric: return "generic";
    case EventKind::kLinkArrival: return "link-arrival";
    case EventKind::kSwitchProcess: return "switch-process";
    case EventKind::kEdgeProcess: return "edge-process";
    case EventKind::kLinkState: return "link-state";
    case EventKind::kTraffic: return "traffic";
    case EventKind::kTransportTimer: return "transport-timer";
  }
  return "generic";
}

EventQueue::Entry EventQueue::handler_entry(double time, std::uint64_t seq,
                                            EventKind kind, Handler fn) {
  if (!fn) throw std::invalid_argument("EventQueue: null handler");
  time = clamp_time(time);
  std::uint32_t slot;
  if (free_handlers_.empty()) {
    slot = static_cast<std::uint32_t>(handlers_.size());
    handlers_.push_back(std::move(fn));
  } else {
    slot = free_handlers_.back();
    free_handlers_.pop_back();
    handlers_[slot] = std::move(fn);
  }
  return Entry{time, seq, slot, kind, Target::kHandler};
}

void EventQueue::schedule_at(double time, EventKind kind, Handler fn) {
  push_heap(heap_, handler_entry(time, next_seq_, kind, std::move(fn)));
  ++next_seq_;
}

void EventQueue::schedule_at_seq(double time, std::uint64_t seq,
                                 EventKind kind, Handler fn) {
  if (seq >= next_seq_) {
    throw std::invalid_argument("EventQueue: seq was never reserved");
  }
  push_heap(heap_, handler_entry(time, seq, kind, std::move(fn)));
}

EventQueue::Entry EventQueue::packet_entry(double time, EventKind kind,
                                           std::uint32_t slot) {
  if (sink_ == nullptr) {
    throw std::logic_error("EventQueue: packet event with no sink attached");
  }
  return Entry{clamp_time(time), next_seq_++, slot, kind, Target::kPacket};
}

void EventQueue::schedule_packet_fifo(double time, EventKind kind,
                                      std::uint32_t slot) {
  const Entry entry = packet_entry(time, kind, slot);
  // The lane stays sorted by (time, seq) as long as times never decrease:
  // seq only grows.
  if (lane_size_ != 0 &&
      entry.time <
          lane_[(lane_head_ + lane_size_ - 1) & (lane_.size() - 1)].time) {
    push_heap(heap_, entry);
  } else {
    push_lane(entry);
  }
}

void EventQueue::set_channel_count(std::size_t count) {
  if (chained_ != 0) {
    throw std::logic_error("EventQueue: channels resized while in use");
  }
  channel_tail_.assign(count, kNoNode);
}

void EventQueue::schedule_packet_on(std::uint32_t channel, double time,
                                    EventKind kind, std::uint32_t slot) {
  if (channel >= channel_tail_.size()) {
    throw std::out_of_range("EventQueue: no such channel");
  }
  const Entry entry = packet_entry(time, kind, slot);
  // Like the lane: a channel stays sorted while its times never decrease.
  std::uint32_t& tail = channel_tail_[channel];
  if (tail != kNoNode && entry.time < nodes_[tail].entry.time) {
    push_heap(heap_, entry);
    return;
  }
  std::uint32_t node = free_node_;
  if (node == kNoNode) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    free_node_ = nodes_[node].next;
  }
  nodes_[node] = Node{entry, kNoNode, channel};
  ++chained_;
  if (tail == kNoNode) {
    Entry head = entry;
    head.slot = node;
    push_heap(channel_heap_, head);
  } else {
    nodes_[tail].next = node;
  }
  tail = node;
}

EventQueue::TimerId EventQueue::add_timer(EventKind kind, Handler fn) {
  if (!fn) throw std::invalid_argument("EventQueue: null timer handler");
  TimerId id;
  if (free_timers_.empty()) {
    id = static_cast<TimerId>(timers_.size());
    timers_.emplace_back();
  } else {
    id = free_timers_.back();
    free_timers_.pop_back();
  }
  Timer& timer = timers_[id];
  timer.fn = std::move(fn);
  timer.kind = kind;
  timer.pos = kDisarmed;
  return id;
}

void EventQueue::arm_timer_at(TimerId id, double time) {
  time = clamp_time(time);
  if (time > latest_arm_) latest_arm_ = time;
  Timer& timer = timers_[id];
  const Entry entry{time, next_seq_++, id, timer.kind, Target::kTimer};
  if (timer.pos == kDisarmed) {
    timer_heap_.push_back(entry);
    place_timer(timer_heap_.size() - 1, entry);
  } else {
    place_timer(timer.pos, entry);
  }
}

void EventQueue::disarm_timer(TimerId id) {
  Timer& timer = timers_[id];
  if (timer.pos == kDisarmed) return;
  const std::size_t i = timer.pos;
  timer.pos = kDisarmed;
  const Entry last = timer_heap_.back();
  timer_heap_.pop_back();
  if (i < timer_heap_.size()) place_timer(i, last);
}

void EventQueue::remove_timer(TimerId id) {
  disarm_timer(id);
  timers_[id].fn = nullptr;
  free_timers_.push_back(id);
}

void EventQueue::reset() noexcept {
  now_ = 0.0;
  next_seq_ = 0;
  latest_arm_ = 0.0;
  profile_ = nullptr;
  heap_.clear();
  lane_head_ = 0;
  lane_size_ = 0;
  std::fill(channel_tail_.begin(), channel_tail_.end(), kNoNode);
  nodes_.clear();
  free_node_ = kNoNode;
  chained_ = 0;
  channel_heap_.clear();
  timer_heap_.clear();
  timers_.clear();
  free_timers_.clear();
  handlers_.clear();
  free_handlers_.clear();
}

template <class Place>
void EventQueue::sift_up(std::vector<Entry>& heap, std::size_t i, Entry entry,
                         Place place) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(entry, heap[parent])) break;
    place(i, heap[parent]);
    i = parent;
  }
  place(i, entry);
}

template <class Place>
void EventQueue::sift_down(std::vector<Entry>& heap, std::size_t i,
                           Entry entry, Place place) {
  // Move the hole down through the earliest of each node's (up to) four
  // children until `entry` fits. A node with all four children picks the
  // earliest by a two-round tournament of selects, not branches.
  const std::size_t n = heap.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    if (first + 4 <= n) {
      const Entry* c = &heap[first];
      const std::size_t low = earlier(c[1], c[0]) ? 1 : 0;
      const std::size_t high = earlier(c[3], c[2]) ? 3 : 2;
      best += earlier(c[high], c[low]) ? high : low;
    } else {
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(heap[c], heap[best])) best = c;
      }
    }
    if (!earlier(heap[best], entry)) break;
    place(i, heap[best]);
    i = best;
  }
  place(i, entry);
}

void EventQueue::push_heap(std::vector<Entry>& heap, const Entry& entry) {
  heap.push_back(entry);
  sift_up(heap, heap.size() - 1, entry,
          [&heap](std::size_t i, const Entry& e) { heap[i] = e; });
}

void EventQueue::pop_heap(std::vector<Entry>& heap) {
  const Entry last = heap.back();
  heap.pop_back();
  if (heap.empty()) return;
  sift_down(heap, 0, last,
            [&heap](std::size_t i, const Entry& e) { heap[i] = e; });
}

void EventQueue::pop_channel(Entry& out) {
  const std::uint32_t node = channel_heap_.front().slot;
  Node& popped = nodes_[node];
  out = popped.entry;
  const std::uint32_t next = popped.next;
  if (next == kNoNode) {
    channel_tail_[popped.channel] = kNoNode;
    pop_heap(channel_heap_);
  } else {
    Entry head = nodes_[next].entry;
    head.slot = next;
    sift_down(channel_heap_, 0, head, [this](std::size_t i, const Entry& e) {
      channel_heap_[i] = e;
    });
  }
  popped.next = free_node_;
  free_node_ = node;
  --chained_;
}

void EventQueue::push_lane(const Entry& entry) {
  if (lane_size_ == lane_.size()) {
    // Full: unroll into a ring twice the size (16 to start).
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * lane_.size()));
    for (std::size_t k = 0; k < lane_size_; ++k) {
      grown[k] = lane_[(lane_head_ + k) & (lane_.size() - 1)];
    }
    lane_ = std::move(grown);
    lane_head_ = 0;
  }
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = entry;
  ++lane_size_;
}

void EventQueue::place_timer(std::size_t i, const Entry& entry) {
  const auto place = [this](std::size_t at, const Entry& e) {
    timer_heap_[at] = e;
    timers_[e.slot].pos = static_cast<std::uint32_t>(at);
  };
  if (i > 0 && earlier(entry, timer_heap_[(i - 1) / 4])) {
    sift_up(timer_heap_, i, entry, place);
  } else {
    sift_down(timer_heap_, i, entry, place);
  }
}

void EventQueue::pop_timer() {
  timers_[timer_heap_.front().slot].pos = kDisarmed;
  const Entry last = timer_heap_.back();
  timer_heap_.pop_back();
  if (!timer_heap_.empty()) place_timer(0, last);
}

bool EventQueue::pop_until(double limit, Entry& out) {
  enum class From : std::uint8_t { kHeap, kLane, kChannel, kTimer };
  const Entry* best = nullptr;
  From from = From::kHeap;
  const auto consider = [&](const Entry& head, From where) {
    if (best == nullptr || earlier(head, *best)) {
      best = &head;
      from = where;
    }
  };
  if (!heap_.empty()) consider(heap_.front(), From::kHeap);
  if (lane_size_ != 0) consider(lane_[lane_head_], From::kLane);
  if (!channel_heap_.empty()) consider(channel_heap_.front(), From::kChannel);
  if (!timer_heap_.empty()) consider(timer_heap_.front(), From::kTimer);
  if (best == nullptr || best->time > limit) return false;
  switch (from) {
    case From::kHeap:
      out = *best;
      pop_heap(heap_);
      break;
    case From::kLane:
      out = *best;
      lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
      --lane_size_;
      break;
    case From::kChannel:
      pop_channel(out);
      break;
    case From::kTimer:
      out = *best;
      pop_timer();
      break;
  }
  return true;
}

void EventQueue::dispatch(const Entry& entry) {
  switch (entry.target) {
    case Target::kPacket:
      sink_->on_packet_event(entry.kind, entry.slot);
      return;
    case Target::kTimer:
      timers_[entry.slot].fn();
      return;
    case Target::kHandler: {
      // Move the handler out and recycle its slot first: the handler may
      // schedule events, which can reuse the slot or grow the slab.
      Handler fn = std::move(handlers_[entry.slot]);
      free_handlers_.push_back(entry.slot);
      fn();
      return;
    }
  }
}

void EventQueue::fire(const Entry& entry) {
  now_ = entry.time;
  if (profile_ == nullptr) {
    dispatch(entry);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  dispatch(entry);
  EventLoopProfile::KindStats& stats =
      profile_->kinds[static_cast<std::size_t>(entry.kind)];
  ++stats.count;
  stats.wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

bool EventQueue::step() {
  Entry entry;
  if (!pop_until(std::numeric_limits<double>::infinity(), entry)) {
    if (now_ < latest_arm_) now_ = latest_arm_;
    return false;
  }
  fire(entry);
  return true;
}

std::size_t EventQueue::run_until(double t) {
  std::size_t processed = 0;
  Entry entry;
  while (pop_until(t, entry)) {
    fire(entry);
    ++processed;
  }
  if (now_ < t) now_ = t;
  return processed;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && step()) ++processed;
  return processed;
}

}  // namespace kar::sim
