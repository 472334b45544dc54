#include "faultgen/invariants.hpp"

#include <sstream>
#include <stdexcept>

namespace kar::faultgen {

using dataplane::DeflectionTechnique;
using sim::TraceEvent;

std::string_view to_string(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kHopBudgetExceeded: return "hop-budget-exceeded";
    case Violation::Kind::kNipReturnedInputPort: return "nip-returned-input-port";
    case Violation::Kind::kForwardOnDownPort: return "forward-on-down-port";
    case Violation::Kind::kResidueMismatch: return "residue-mismatch";
    case Violation::Kind::kLifecycle: return "lifecycle";
    case Violation::Kind::kTimeNonMonotonic: return "time-non-monotonic";
    case Violation::Kind::kConservation: return "conservation";
  }
  throw std::logic_error("to_string: bad Violation::Kind");
}

InvariantChecker::InvariantChecker(const sim::Network& network,
                                   InvariantConfig config)
    : net_(&network),
      config_(config),
      hop_budget_(config.hop_budget_override.value_or(config.max_hops)) {}

void InvariantChecker::reset() noexcept {
  violations_.clear();
  packets_.clear();
  in_flight_ = 0;
  last_time_ = 0.0;
  injected_ = 0;
  delivered_ = 0;
  dropped_ = 0;
}

void InvariantChecker::record(Violation::Kind kind, double time,
                              std::uint64_t packet_id, std::string detail) {
  if (violations_.size() >= config_.max_recorded) return;
  violations_.push_back(Violation{kind, time, packet_id, std::move(detail)});
}

InvariantChecker::PacketState* InvariantChecker::live(std::uint64_t packet_id) {
  if (packet_id >= packets_.size() || !packets_[packet_id].in_flight) {
    return nullptr;
  }
  return &packets_[packet_id];
}

void InvariantChecker::check_hop(const TraceEvent& event, PacketState& state) {
  const topo::Topology& topo = net_->topology();
  if (++state.hops > hop_budget_) {
    record(Violation::Kind::kHopBudgetExceeded, event.time, event.packet_id,
           "hop " + std::to_string(state.hops) + " at " +
               topo.name(event.node) + " exceeds budget " +
               std::to_string(hop_budget_));
  }
  // Port liveness: the forwarding decision just happened, so the detected
  // link state at `event.time` is exactly what the switch saw.
  if (!topo.port_available(event.node, event.out_port)) {
    record(Violation::Kind::kForwardOnDownPort, event.time, event.packet_id,
           topo.name(event.node) + " forwarded out detected-down port " +
               std::to_string(event.out_port));
  }
  if (config_.technique == DeflectionTechnique::kNotInputPort &&
      event.out_port == event.in_port) {
    record(Violation::Kind::kNipReturnedInputPort, event.time, event.packet_id,
           topo.name(event.node) + " returned packet out input port " +
               std::to_string(event.in_port));
  }
  if (!config_.check_residue || event.packet == nullptr) return;
  // A Hot-Potato packet on its random walk no longer consults the residue.
  if (event.deflected && config_.technique == DeflectionTechnique::kHotPotato) {
    if (state.walking) return;
    state.walking = true;
  }
  check_residue(event, !event.deflected);
}

void InvariantChecker::check_residue(const TraceEvent& event, bool followed) {
  const topo::Topology& topo = net_->topology();
  const rns::BigUint& route_id = event.packet->kar.route_id;
  const std::uint64_t residue = route_id.mod_u64(topo.switch_id(event.node));
  const auto usable = [&] {
    return residue < topo.port_count(event.node) &&
           topo.port_available(event.node,
                               static_cast<topo::PortIndex>(residue)) &&
           !(config_.technique == DeflectionTechnique::kNotInputPort &&
             residue == event.in_port);
  };
  if (followed ? residue == event.out_port : !usable()) return;
  std::ostringstream detail;
  detail << topo.name(event.node);
  if (event.kind == TraceEvent::Kind::kDrop) {
    detail << " dropped the packet";
  } else {
    detail << (followed ? " followed port " : " deflected to port ")
           << event.out_port;
  }
  detail << " but route ID " << route_id << " decodes to "
         << (followed ? "residue " : "usable port ") << residue;
  record(Violation::Kind::kResidueMismatch, event.time, event.packet_id,
         detail.str());
}

void InvariantChecker::observe(const TraceEvent& event) {
  if (event.time < last_time_) {
    record(Violation::Kind::kTimeNonMonotonic, event.time, event.packet_id,
           "event at t=" + std::to_string(event.time) +
               " after t=" + std::to_string(last_time_));
  }
  last_time_ = std::max(last_time_, event.time);

  switch (event.kind) {
    case TraceEvent::Kind::kInject:
      if (live(event.packet_id) != nullptr) {
        record(Violation::Kind::kLifecycle, event.time, event.packet_id,
               "packet injected twice");
        return;
      }
      if (event.packet_id >= packets_.size()) {
        packets_.resize(event.packet_id + 1);
      }
      packets_[event.packet_id] = PacketState{0, true};
      ++in_flight_;
      ++injected_;
      break;
    case TraceEvent::Kind::kHop: {
      PacketState* state = live(event.packet_id);
      if (state == nullptr) {
        record(Violation::Kind::kLifecycle, event.time, event.packet_id,
               "hop for a packet that is not in flight");
        return;
      }
      check_hop(event, *state);
      break;
    }
    case TraceEvent::Kind::kReencode:
    case TraceEvent::Kind::kBounce: {
      PacketState* state = live(event.packet_id);
      if (state == nullptr) {
        record(Violation::Kind::kLifecycle, event.time, event.packet_id,
               "edge event for a packet that is not in flight");
        return;
      }
      // A fresh route ID clears the Hot-Potato mark (EdgeNode::receive).
      if (event.kind == TraceEvent::Kind::kReencode) state->walking = false;
      break;
    }
    case TraceEvent::Kind::kDeliver:
    case TraceEvent::Kind::kDrop: {
      PacketState* state = live(event.packet_id);
      if (state == nullptr) {
        record(Violation::Kind::kLifecycle, event.time, event.packet_id,
               "terminal event for a packet that is not in flight");
        return;
      }
      state->in_flight = false;
      --in_flight_;
      if (event.kind == TraceEvent::Kind::kDeliver) {
        ++delivered_;
      } else {
        ++dropped_;
        // Only kNone drops because of its residue; AVP, NIP and HP drop
        // with kNoViablePort only when no candidate port is up at all.
        if (config_.check_residue && event.packet != nullptr &&
            config_.technique == DeflectionTechnique::kNone &&
            event.drop_reason == dataplane::DropReason::kNoViablePort &&
            net_->topology().kind(event.node) == topo::NodeKind::kCoreSwitch) {
          check_residue(event, /*followed=*/false);
        }
      }
      break;
    }
  }
}

void InvariantChecker::finish(bool queue_drained) {
  const sim::NetworkCounters& counters = net_->counters();
  const auto check_count = [&](std::uint64_t observed, std::uint64_t counted,
                               const char* what) {
    if (observed != counted) {
      record(Violation::Kind::kConservation, last_time_, 0,
             std::string(what) + " mismatch: traced " +
                 std::to_string(observed) + ", network counted " +
                 std::to_string(counted));
    }
  };
  check_count(injected_, counters.injected, "injected");
  check_count(delivered_, counters.delivered, "delivered");
  check_count(dropped_, counters.total_drops(), "dropped");
  if (injected_ != delivered_ + dropped_ + in_flight_) {
    record(Violation::Kind::kConservation, last_time_, 0,
           "injected " + std::to_string(injected_) + " != delivered " +
               std::to_string(delivered_) + " + dropped " +
               std::to_string(dropped_) + " + in-flight " +
               std::to_string(in_flight_));
  }
  if (queue_drained && in_flight_ != 0) {
    record(Violation::Kind::kConservation, last_time_, 0,
           std::to_string(in_flight_) +
               " packet(s) vanished: still tracked after the event queue drained");
  }
}

}  // namespace kar::faultgen
