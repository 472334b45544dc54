#include "sim/event_queue.hpp"

#include <algorithm>
#include <chrono>
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
    case EventKind::kBatchFlush: return "batch-flush";
  }
  return "generic";
}

void EventQueue::schedule_at(double time, EventKind kind, Handler fn) {
  if (!fn) throw std::invalid_argument("EventQueue: null handler");
  if (time < now_) time = now_;  // no scheduling into the past
  std::uint32_t slot;
  if (free_handlers_.empty()) {
    slot = static_cast<std::uint32_t>(handlers_.size());
    handlers_.push_back(std::move(fn));
  } else {
    slot = free_handlers_.back();
    free_handlers_.pop_back();
    handlers_[slot] = std::move(fn);
  }
  push(Entry{time, next_seq_++, slot, kind, /*packet=*/false});
}

void EventQueue::schedule_packet_at(double time, EventKind kind,
                                    std::uint32_t slot) {
  if (sink_ == nullptr) {
    throw std::logic_error("EventQueue: packet event with no sink attached");
  }
  if (time < now_) time = now_;
  push(Entry{time, next_seq_++, slot, kind, /*packet=*/true});
}

void EventQueue::push(const Entry& entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

EventQueue::Entry EventQueue::pop() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Sift the former last entry down from the root through the earliest of
  // each node's (up to) four children.
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

void EventQueue::dispatch(const Entry& entry) {
  if (entry.packet) {
    sink_->on_packet_event(entry.kind, entry.slot);
    return;
  }
  // Move the handler out and recycle its slot first: the handler may
  // schedule events, which can reuse the slot or grow the slab.
  Handler fn = std::move(handlers_[entry.slot]);
  free_handlers_.push_back(entry.slot);
  fn();
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Entry entry = pop();
  now_ = entry.time;
  if (profile_ == nullptr) {
    dispatch(entry);
    return true;
  }
  const auto start = std::chrono::steady_clock::now();
  dispatch(entry);
  EventLoopProfile::KindStats& stats =
      profile_->kinds[static_cast<std::size_t>(entry.kind)];
  ++stats.count;
  stats.wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return true;
}

std::size_t EventQueue::run_until(double t) {
  std::size_t processed = 0;
  while (!heap_.empty() && heap_.front().time <= t) {
    step();
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
