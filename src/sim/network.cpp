#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace kar::sim {

using dataplane::DropReason;
using dataplane::ForwardDecision;
using dataplane::Packet;

std::uint32_t Network::PacketPool::acquire(Packet&& packet) {
  if (free_.empty()) {
    if (created_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      free_.reserve(chunks_.size() * kChunkSize);
    }
    free_.push_back(created_++);
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  (*this)[slot].packet = std::move(packet);
  return slot;
}

Network::Network(topo::Topology& topology, const routing::Controller& controller,
                 NetworkConfig config)
    : topo_(&topology),
      controller_(&controller),
      config_(config),
      rng_(config.seed) {
  events_.set_packet_sink(this);
  events_.set_channel_count(2 * topology.link_count());
  const std::size_t n = topology.node_count();
  switches_.resize(n);
  edges_.resize(n);
  for (topo::NodeId node = 0; node < n; ++node) {
    if (topology.kind(node) == topo::NodeKind::kCoreSwitch) {
      switches_[node].emplace(topology, node, config_.technique);
    } else {
      edges_[node].emplace(topology, node, controller, config_.wrong_edge_policy);
    }
  }
  link_state_.resize(topology.link_count());
  physically_up_.assign(topology.link_count(), true);
  pristine_up_.resize(topology.link_count());
  for (topo::LinkId link = 0; link < topology.link_count(); ++link) {
    pristine_up_[link] = topology.link_up(link);
  }
}

void Network::reset(std::uint64_t seed) {
  events_.reset();
  pool_.reset();
  counters_ = NetworkCounters{};
  next_packet_id_ = 1;
  for (auto& dirs : link_state_) dirs = {};
  physically_up_.assign(physically_up_.size(), true);
  for (topo::LinkId link = 0; link < pristine_up_.size(); ++link) {
    topo_->set_link_up(link, pristine_up_[link]);
  }
  config_.seed = seed;
  rng_.reseed(seed);
  trace_ = nullptr;
  link_state_hook_ = nullptr;
  // Unset handlers keep their map entries: arrive_at skips an empty one.
  for (auto& entry : delivery_) entry.second = nullptr;
  for (auto& sw : switches_) {
    if (sw) sw->residue_cache().reset();
  }
}

const dataplane::EdgeNode& Network::edge_at(topo::NodeId node) const {
  if (node >= edges_.size() || !edges_[node]) {
    throw std::invalid_argument("Network::edge_at: not an edge node");
  }
  return *edges_[node];
}

void Network::set_delivery_handler(topo::NodeId edge, DeliveryHandler handler) {
  if (edge >= edges_.size() || !edges_[edge]) {
    throw std::invalid_argument("Network: not an edge node");
  }
  delivery_[edge] = std::move(handler);
}

void Network::trace(TraceEvent event) {
  if (trace_) trace_(event);
}

void Network::drop(std::uint32_t slot, topo::NodeId at, DropReason reason) {
  switch (reason) {
    case DropReason::kNoViablePort: ++counters_.drop_no_viable_port; break;
    case DropReason::kLinkFailed: ++counters_.drop_link_failed; break;
    case DropReason::kQueueOverflow: ++counters_.drop_queue_overflow; break;
    case DropReason::kTtlExceeded: ++counters_.drop_ttl; break;
    case DropReason::kAqmEarly: ++counters_.drop_aqm_early; break;
  }
  const Packet& packet = pool_[slot].packet;
  trace(TraceEvent{TraceEvent::Kind::kDrop, now(), packet.packet_id, at, 0,
                   false, reason, 0, &packet});
  pool_.release(slot);
}

std::uint32_t Network::admit(topo::NodeId edge, Packet&& packet) {
  const std::uint32_t slot = pool_.acquire(std::move(packet));
  Packet& admitted = pool_[slot].packet;
  admitted.packet_id = next_packet_id_++;
  admitted.created_at = now();
  ++counters_.injected;
  trace(TraceEvent{TraceEvent::Kind::kInject, now(), admitted.packet_id, edge,
                   0, false, DropReason::kNoViablePort, 0, &admitted});
  return slot;
}

void Network::inject(topo::NodeId edge, Packet packet) {
  if (edge >= edges_.size() || !edges_[edge]) {
    throw std::invalid_argument("Network::inject: not an edge node");
  }
  if (topo_->port_count(edge) == 0) {
    throw std::logic_error("Network::inject: edge node has no uplink");
  }
  const std::uint32_t slot = admit(edge, std::move(packet));
  // Edge nodes use their (single) uplink, port 0.
  transmit(edge, 0, slot);
}

void Network::transmit(topo::NodeId from, topo::PortIndex out_port,
                       std::uint32_t slot) {
  const topo::LinkId link_id = topo_->link_at(from, out_port);
  if (link_id == topo::kInvalidLink) {
    drop(slot, from, DropReason::kNoViablePort);
    return;
  }
  const topo::Link& link = topo_->link(link_id);
  if (!link.up) {
    drop(slot, from, DropReason::kLinkFailed);
    return;
  }
  const int dir = (link.a.node == from) ? 0 : 1;
  DirectionState& state = link_state_[link_id][static_cast<std::size_t>(dir)];
  const double tx_time = static_cast<double>(pool_[slot].packet.size_bytes) *
                        8.0 / link.params.rate_bps;
  if (link.params.red && !red_admit(*link.params.red, state, tx_time)) {
    drop(slot, from, DropReason::kAqmEarly);
    return;
  }
  if (state.queued >= link.params.queue_packets) {
    drop(slot, from, DropReason::kQueueOverflow);
    return;
  }
  const double start = std::max(now(), state.busy_until);
  state.busy_until = start + tx_time;
  const double arrival = state.busy_until + link.params.delay_s;
  ++state.queued;

  const topo::LinkEnd& far = (dir == 0) ? link.b : link.a;
  pool_[slot].hop = PacketPool::Hop{far.node, far.port, link_id,
                                    static_cast<std::uint8_t>(dir), state.epoch};
  events_.schedule_packet_on(2 * link_id + static_cast<std::uint32_t>(dir),
                             arrival, EventKind::kLinkArrival, slot);
}

bool Network::red_admit(const topo::RedParams& red, DirectionState& state,
                        double tx_time) {
  // Floyd/Jacobson RED: EWMA the instantaneous queue at every arrival,
  // decaying through idle periods as if empty-queue arrivals had kept the
  // average fresh (one virtual arrival per transmission time).
  double& avg = state.red_avg;
  if (state.queued == 0 && state.busy_until <= now()) {
    const double idle_s = now() - state.red_last_arrival;
    if (tx_time > 0.0 && idle_s > 0.0) {
      avg *= std::pow(1.0 - red.weight, idle_s / tx_time);
    }
  } else {
    avg = (1.0 - red.weight) * avg +
          red.weight * static_cast<double>(state.queued);
  }
  state.red_last_arrival = now();
  if (avg < red.min_th) {
    state.red_count = 0;
    return true;
  }
  if (avg >= red.max_th) {
    state.red_count = 0;
    return false;
  }
  // Between the thresholds: drop with probability p_a, uniformized by the
  // count of arrivals since the last drop so drops spread out in time.
  ++state.red_count;
  const double pb =
      red.max_p * (avg - red.min_th) / (red.max_th - red.min_th);
  const double denom = 1.0 - static_cast<double>(state.red_count - 1) * pb;
  const double pa = denom <= 0.0 ? 1.0 : std::min(1.0, pb / denom);
  if (rng_.chance(pa)) {
    state.red_count = 0;
    return false;
  }
  return true;
}

void Network::on_packet_event(EventKind kind, std::uint32_t slot) {
  if (kind == EventKind::kLinkArrival) {
    link_arrival(slot);
    return;
  }
  // kSwitchProcess / kEdgeProcess: the processing latency has elapsed.
  const PacketPool::Hop& hop = pool_[slot].hop;
  transmit(hop.node, hop.port, slot);
}

void Network::link_arrival(std::uint32_t slot) {
  const PacketPool::Hop hop = pool_[slot].hop;
  DirectionState& st = link_state_[hop.link][hop.dir];
  if (st.queued > 0) --st.queued;
  // The link failed while the packet was queued or on the wire — or it was
  // dead all along and the sender had not detected it yet.
  if (st.epoch != hop.epoch || !physically_up_[hop.link] ||
      !topo_->link(hop.link).up) {
    drop(slot, hop.node, DropReason::kLinkFailed);
    return;
  }
  arrive_at(hop.node, hop.port, slot);
}

void Network::arrive_at(topo::NodeId node, topo::PortIndex in_port,
                        std::uint32_t slot) {
  if (edges_[node]) {
    Packet& pkt = pool_[slot].packet;
    const auto verdict = edges_[node]->receive(pkt);
    switch (verdict) {
      case dataplane::EdgeNode::Verdict::kDeliver: {
        ++counters_.delivered;
        counters_.delivered_bytes += pkt.size_bytes;
        trace(TraceEvent{TraceEvent::Kind::kDeliver, now(), pkt.packet_id, node,
                         0, false, DropReason::kNoViablePort, 0, &pkt});
        // The handler may inject (an ACK): the slot stays held, and its
        // address stable, until the handler returns.
        const auto it = delivery_.find(node);
        if (it != delivery_.end() && it->second) it->second(pkt);
        pool_.release(slot);
        return;
      }
      case dataplane::EdgeNode::Verdict::kReinject: {
        const bool reencoded =
            edges_[node]->policy() == dataplane::WrongEdgePolicy::kReencode;
        if (reencoded) {
          ++counters_.reencodes;
          trace(TraceEvent{TraceEvent::Kind::kReencode, now(), pkt.packet_id,
                           node, 0, false, DropReason::kNoViablePort, 0, &pkt});
        } else {
          ++counters_.bounces;
          trace(TraceEvent{TraceEvent::Kind::kBounce, now(), pkt.packet_id,
                           node, 0, false, DropReason::kNoViablePort, 0, &pkt});
        }
        // Back out of the uplink after the edge's processing latency.
        pool_[slot].hop.node = node;
        pool_[slot].hop.port = 0;
        events_.schedule_packet_fifo(now() + config_.switch_latency_s,
                                     EventKind::kEdgeProcess, slot);
        return;
      }
      case dataplane::EdgeNode::Verdict::kDrop:
        drop(slot, node, DropReason::kNoViablePort);
        return;
    }
    return;
  }
  forward_from_switch(node, in_port, slot);
}

void Network::forward_from_switch(topo::NodeId node, topo::PortIndex in_port,
                                  std::uint32_t slot) {
  if (config_.mode == DataPlaneMode::kFailoverFib) {
    // Table-driven fast-failover baseline: the route ID is ignored.
    const auto selection =
        config_.failover_fib
            ? config_.failover_fib->select_with_status(
                  *topo_, node, pool_[slot].packet.dst_edge)
            : std::nullopt;
    if (!selection) {
      drop(slot, node, DropReason::kNoViablePort);
      return;
    }
    ForwardDecision decision;
    decision.action = ForwardDecision::Action::kForward;
    decision.out_port = selection->port;
    decision.deflected = selection->failed_over;
    apply_decision(node, in_port, slot, decision);
    return;
  }
  const ForwardDecision decision =
      switches_[node]->forward(pool_[slot].packet, in_port, rng_);
  apply_decision(node, in_port, slot, decision);
}

void Network::apply_decision(topo::NodeId node, topo::PortIndex in_port,
                             std::uint32_t slot,
                             const ForwardDecision& decision) {
  if (decision.action == ForwardDecision::Action::kDrop) {
    drop(slot, node, decision.drop_reason);
    return;
  }
  Packet& packet = pool_[slot].packet;
  packet.hop_count += 1;
  ++counters_.hops;
  if (packet.hop_count > config_.max_hops) {
    drop(slot, node, DropReason::kTtlExceeded);
    return;
  }
  if (decision.deflected) {
    packet.deflection_count += 1;
    ++counters_.deflections;
  }
  if (decision.marked_hot_potato) packet.kar.deflected = true;
  trace(TraceEvent{TraceEvent::Kind::kHop, now(), packet.packet_id, node,
                   decision.out_port, decision.deflected,
                   DropReason::kNoViablePort, in_port, &packet});
  pool_[slot].hop.node = node;
  pool_[slot].hop.port = decision.out_port;
  events_.schedule_packet_fifo(now() + config_.switch_latency_s,
                               EventKind::kSwitchProcess, slot);
}

void Network::fail_link_now(topo::LinkId link) {
  // Physical failure: everything queued or in flight dies immediately.
  physically_up_.at(link) = false;
  for (auto& dir : link_state_[link]) {
    ++dir.epoch;
    dir.busy_until = now();
  }
  if (config_.failure_detection_delay_s > 0.0) {
    // Until detection, the port still looks usable: switches keep sending
    // into the dead link (the epoch check blackholes those packets). Only
    // after the detection window does the link state flip and deflection
    // kick in. A repair that races the detection bumps the epoch and
    // cancels it.
    const std::uint64_t epoch = link_state_[link][0].epoch;
    events_.schedule_in(config_.failure_detection_delay_s, EventKind::kLinkState,
                        [this, link, epoch] {
      if (link_state_[link][0].epoch != epoch) return;  // repaired meanwhile
      topo_->set_link_up(link, false);
      if (link_state_hook_) link_state_hook_(link, /*up=*/false);
    });
    return;
  }
  topo_->set_link_up(link, false);
  if (link_state_hook_) link_state_hook_(link, /*up=*/false);
}

void Network::repair_link_now(topo::LinkId link) {
  physically_up_.at(link) = true;
  topo_->set_link_up(link, true);
  for (auto& dir : link_state_[link]) {
    ++dir.epoch;  // anything stale from before the repair is gone
    dir.busy_until = now();
  }
  if (link_state_hook_) link_state_hook_(link, /*up=*/true);
}

void Network::attach_dataplane_metrics(obs::MetricsRegistry& registry,
                                       const obs::Labels& labels) {
  const obs::Counter hits = registry.counter(
      "kar_dataplane_residue_cache_hits_total",
      "Residue-cache lookups answered from the memo", labels);
  const obs::Counter misses = registry.counter(
      "kar_dataplane_residue_cache_misses_total",
      "Residue-cache lookups that ran the PreparedMod reduction", labels);
  const obs::Counter evictions = registry.counter(
      "kar_dataplane_residue_cache_evictions_total",
      "Residue-cache entries overwritten by a colliding route ID", labels);
  for (auto& sw : switches_) {
    if (sw) sw->residue_cache().bind_counters(hits, misses, evictions);
  }
}

dataplane::ResidueCache::Stats Network::residue_cache_stats() const {
  dataplane::ResidueCache::Stats total;
  for (const auto& sw : switches_) {
    if (!sw) continue;
    const auto& stats = sw->residue_cache().stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.evictions += stats.evictions;
  }
  return total;
}

void Network::fail_link_at(double time, const std::string& node_a,
                           const std::string& node_b) {
  const auto link = topo_->link_between(topo_->at(node_a), topo_->at(node_b));
  if (!link) {
    throw std::invalid_argument("Network::fail_link_at: " + node_a + " and " +
                                node_b + " are not adjacent");
  }
  events_.schedule_at(time, EventKind::kLinkState,
                      [this, id = *link] { fail_link_now(id); });
}

void Network::repair_link_at(double time, const std::string& node_a,
                             const std::string& node_b) {
  const auto link = topo_->link_between(topo_->at(node_a), topo_->at(node_b));
  if (!link) {
    throw std::invalid_argument("Network::repair_link_at: " + node_a + " and " +
                                node_b + " are not adjacent");
  }
  events_.schedule_at(time, EventKind::kLinkState,
                      [this, id = *link] { repair_link_now(id); });
}

}  // namespace kar::sim
