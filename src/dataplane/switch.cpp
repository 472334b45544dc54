#include "dataplane/switch.hpp"

#include <cctype>
#include <stdexcept>
#include <string>

namespace kar::dataplane {

std::string_view to_string(DeflectionTechnique technique) {
  switch (technique) {
    case DeflectionTechnique::kNone: return "none";
    case DeflectionTechnique::kHotPotato: return "hp";
    case DeflectionTechnique::kAnyValidPort: return "avp";
    case DeflectionTechnique::kNotInputPort: return "nip";
  }
  throw std::logic_error("to_string: bad DeflectionTechnique");
}

DeflectionTechnique technique_from_string(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "none") return DeflectionTechnique::kNone;
  if (lower == "hp") return DeflectionTechnique::kHotPotato;
  if (lower == "avp") return DeflectionTechnique::kAnyValidPort;
  if (lower == "nip") return DeflectionTechnique::kNotInputPort;
  throw std::invalid_argument("unknown deflection technique \"" +
                              std::string(name) +
                              "\" (expected one of: none|hp|avp|nip)");
}

KarSwitch::KarSwitch(const topo::Topology& topology, topo::NodeId node,
                     DeflectionTechnique technique)
    : topo_(&topology),
      node_(node),
      switch_id_(topology.switch_id(node)),  // throws for non-switches
      technique_(technique),
      prepared_mod_(switch_id_) {}

ForwardDecision KarSwitch::random_among_available(
    std::optional<topo::PortIndex> excluded_port, bool marked,
    common::Rng& rng) const {
  // Candidates are the available ports in ascending order, the excluded
  // one skipped: count them, draw once, then walk to the pick (no
  // candidate vector, so a deflection does not allocate).
  const std::size_t ports = topo_->port_count(node_);
  const auto candidate = [&](topo::PortIndex p) {
    return (!excluded_port || p != *excluded_port) &&
           topo_->port_available(node_, p);
  };
  std::size_t count = 0;
  for (topo::PortIndex p = 0; p < ports; ++p) {
    if (candidate(p)) ++count;
  }
  ForwardDecision decision;
  if (count == 0) {
    decision.action = ForwardDecision::Action::kDrop;
    decision.drop_reason = DropReason::kNoViablePort;
    return decision;
  }
  std::uint64_t pick = rng.below(count);
  for (topo::PortIndex p = 0; p < ports; ++p) {
    if (!candidate(p)) continue;
    if (pick-- == 0) {
      decision.action = ForwardDecision::Action::kForward;
      decision.out_port = p;
      decision.deflected = true;
      decision.marked_hot_potato = marked;
      return decision;
    }
  }
  throw std::logic_error("random_among_available: pick out of range");
}

ForwardDecision KarSwitch::forward(const Packet& packet,
                                   std::optional<topo::PortIndex> in_port,
                                   common::Rng& rng) const {
  // A Hot-Potato packet already in random-walk mode never consults the
  // residue again.
  if (technique_ == DeflectionTechnique::kHotPotato && packet.kar.deflected) {
    return random_among_available(std::nullopt, /*marked=*/false, rng);
  }
  return decide(residue_fast(packet.kar.route_id), in_port, rng);
}

ForwardDecision KarSwitch::decide(std::uint64_t residue_port,
                                  std::optional<topo::PortIndex> in_port,
                                  common::Rng& rng) const {
  const bool residue_is_port =
      residue_port < topo_->port_count(node_) &&
      topo_->port_available(node_, static_cast<topo::PortIndex>(residue_port));
  const auto out = static_cast<topo::PortIndex>(residue_port);

  switch (technique_) {
    case DeflectionTechnique::kNone: {
      ForwardDecision decision;
      if (residue_is_port) {
        decision.action = ForwardDecision::Action::kForward;
        decision.out_port = out;
      } else {
        decision.action = ForwardDecision::Action::kDrop;
        decision.drop_reason = DropReason::kNoViablePort;
      }
      return decision;
    }
    case DeflectionTechnique::kHotPotato: {
      if (residue_is_port) {
        ForwardDecision decision;
        decision.action = ForwardDecision::Action::kForward;
        decision.out_port = out;
        return decision;
      }
      // First deflection: mark the packet; it random-walks from here on.
      return random_among_available(std::nullopt, /*marked=*/true, rng);
    }
    case DeflectionTechnique::kAnyValidPort: {
      if (residue_is_port) {
        ForwardDecision decision;
        decision.action = ForwardDecision::Action::kForward;
        decision.out_port = out;
        return decision;
      }
      return random_among_available(std::nullopt, /*marked=*/false, rng);
    }
    case DeflectionTechnique::kNotInputPort: {
      if (residue_is_port && (!in_port || out != *in_port)) {
        ForwardDecision decision;
        decision.action = ForwardDecision::Action::kForward;
        decision.out_port = out;
        return decision;
      }
      return random_among_available(in_port, /*marked=*/false, rng);
    }
  }
  throw std::logic_error("KarSwitch::decide: bad technique");
}

}  // namespace kar::dataplane
