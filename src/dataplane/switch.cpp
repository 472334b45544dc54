#include "dataplane/switch.hpp"

#include <cctype>
#include <stdexcept>
#include <string>

#include "dataplane/batch.hpp"

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
                     DeflectionTechnique technique, ResiduePath residue_path)
    : topo_(&topology),
      node_(node),
      switch_id_(topology.switch_id(node)),  // throws for non-switches
      technique_(technique),
      residue_path_(residue_path),
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

  const std::uint64_t residue_port = (residue_path_ == ResiduePath::kFast)
                                         ? residue_fast(packet.kar.route_id)
                                         : residue(packet.kar.route_id);
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
  throw std::logic_error("KarSwitch::forward: bad technique");
}

namespace {

/// random_among_available against a hoisted availability snapshot: same
/// candidate order (ascending ports, excluded port skipped in place), same
/// single rng draw — so the batched path consumes the RNG stream exactly
/// like the per-packet path, without building a candidate vector.
/// Inline limb-equality for the batch residue sweep. BigUint::operator==
/// round-trips through an out-of-line library call that dominates a scan
/// this hot. Narrow routes (one or two limbs) want the scalar compare;
/// wide ones want the vectorized builtin memcmp — a match (the common
/// case: batch-mates share flows) must touch every limb either way, and
/// the early-exit scalar loop serializes at one limb per cycle.
inline bool same_route(const rns::BigUint& a, const rns::BigUint& b) noexcept {
  const auto& la = a.limbs();
  const auto& lb = b.limbs();
  if (la.size() != lb.size()) return false;
  if (la.size() > 2) {
    return __builtin_memcmp(la.data(), lb.data(),
                            la.size() * sizeof(std::uint32_t)) == 0;
  }
  for (std::size_t j = 0; j < la.size(); ++j) {
    if (la[j] != lb[j]) return false;
  }
  return true;
}

ForwardDecision random_from_snapshot(const std::vector<topo::PortIndex>& avail,
                                     std::optional<topo::PortIndex> excluded,
                                     bool marked, common::Rng& rng) {
  std::size_t count = avail.size();
  bool skip_excluded = false;
  if (excluded) {
    for (const topo::PortIndex p : avail) {
      if (p == *excluded) {
        skip_excluded = true;
        --count;
        break;
      }
    }
  }
  ForwardDecision decision;
  if (count == 0) {
    decision.action = ForwardDecision::Action::kDrop;
    decision.drop_reason = DropReason::kNoViablePort;
    return decision;
  }
  const std::uint64_t pick = rng.below(count);
  std::uint64_t index = 0;
  for (const topo::PortIndex p : avail) {
    if (skip_excluded && p == *excluded) continue;
    if (index == pick) {
      decision.action = ForwardDecision::Action::kForward;
      decision.out_port = p;
      decision.deflected = true;
      decision.marked_hot_potato = marked;
      return decision;
    }
    ++index;
  }
  throw std::logic_error("random_from_snapshot: pick out of range");
}

}  // namespace

void KarSwitch::forward_batch(PacketBatch& batch, common::Rng& rng) const {
  batch.stats_ = BatchStats{};
  const std::size_t n = batch.size();
  if (n == 0) return;

  // One topology scan per (switch, batch): the availability snapshot every
  // deflection draw and residue-usability check below reads from.
  const std::size_t ports = topo_->port_count(node_);
  avail_scratch_.clear();
  for (topo::PortIndex p = 0; p < ports; ++p) {
    if (topo_->port_available(node_, p)) avail_scratch_.push_back(p);
  }

  const bool hp = technique_ == DeflectionTechnique::kHotPotato;

  // Hoist the column pointers (and fold stats into locals): stores through
  // one column must not force the optimizer to reload the others from the
  // batch object on every iteration.
  Packet* const* const packets = batch.packets_;
  const topo::PortIndex* const in_ports = batch.in_ports_;
  std::uint64_t* const residues = batch.residues_;
  ForwardDecision* const decisions = batch.decisions_;
  const rns::BigUint** const route_keys = batch.route_keys_;
  std::uint64_t* const route_residues = batch.route_residues_;
  ForwardDecision* const route_decisions = batch.route_decisions_;
  std::uint32_t forwarded = 0, dropped = 0, deflected = 0, marked = 0;

  // Single pass in push order (the RNG-order contract). The route-ID
  // column is grouped into distinct routes as it streams by: the first
  // packet of a group runs the one reduction (PreparedMod, memoized for
  // wide routes) and the one port probe, materialized as the group's
  // residue-outcome decision template; every later member copies the
  // template and only the deflection fallbacks draw from the RNG, exactly
  // where forward() would. HP packets already in random-walk mode never
  // consult the residue, exactly like forward(). Amortizing the probe over
  // the batch is legal because nothing observable changes between two
  // packets of one batch (see the flush discipline in sim/network.cpp).
  std::size_t routes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // The batch streams pointer-chased Packet objects (and, for wide
    // routes, their heap limb arrays); at batch sizes past the L1 working
    // set those chases dominate the loop. Two-stage prefetch: pull the
    // Packet itself well ahead, then — once that line is resident — the
    // limb array of a closer packet.
    if (i + 8 < n) __builtin_prefetch(packets[i + 8]);
    if (i + 4 < n) {
      __builtin_prefetch(packets[i + 4]->kar.route_id.limbs().data());
    }
    const Packet& packet = *packets[i];
    if (hp && packet.kar.deflected) {
      decisions[i] =
          random_from_snapshot(avail_scratch_, std::nullopt, false, rng);
    } else {
      const rns::BigUint& route_id = packet.kar.route_id;
      std::size_t group = 0;
      while (group < routes && route_keys[group] != &route_id &&
             !same_route(*route_keys[group], route_id)) {
        ++group;
      }
      if (group == routes) {
        const std::uint64_t residue_port =
            (residue_path_ == ResiduePath::kFast) ? residue_fast(route_id)
                                                  : residue(route_id);
        route_keys[routes] = &route_id;
        route_residues[routes] = residue_port;
        ForwardDecision templ;
        if (residue_port < ports &&
            topo_->port_available(
                node_, static_cast<topo::PortIndex>(residue_port))) {
          templ.action = ForwardDecision::Action::kForward;
          templ.out_port = static_cast<topo::PortIndex>(residue_port);
        } else {
          templ.action = ForwardDecision::Action::kDrop;
          templ.drop_reason = DropReason::kNoViablePort;
        }
        route_decisions[routes] = templ;
        ++routes;
      }
      residues[i] = route_residues[group];
      // Write the template straight into the column and test it in place:
      // carrying the struct through a register-resident local measurably
      // serializes this loop, a memory-to-memory copy does not.
      decisions[i] = route_decisions[group];
      switch (technique_) {
        case DeflectionTechnique::kNone:
          break;  // the template already is the final decision
        case DeflectionTechnique::kHotPotato:
          if (decisions[i].action != ForwardDecision::Action::kForward) {
            decisions[i] = random_from_snapshot(avail_scratch_, std::nullopt,
                                                /*marked=*/true, rng);
          }
          break;
        case DeflectionTechnique::kAnyValidPort:
          if (decisions[i].action != ForwardDecision::Action::kForward) {
            decisions[i] = random_from_snapshot(avail_scratch_, std::nullopt,
                                                /*marked=*/false, rng);
          }
          break;
        case DeflectionTechnique::kNotInputPort: {
          const topo::PortIndex in = in_ports[i];
          if (decisions[i].action != ForwardDecision::Action::kForward ||
              (in != kNoInPort && decisions[i].out_port == in)) {
            decisions[i] = random_from_snapshot(
                avail_scratch_,
                in == kNoInPort ? std::nullopt
                                : std::optional<topo::PortIndex>(in),
                /*marked=*/false, rng);
          }
          break;
        }
      }
    }
    const ForwardDecision& d = decisions[i];
    if (d.action == ForwardDecision::Action::kForward) {
      ++forwarded;
      if (d.deflected) ++deflected;
      if (d.marked_hot_potato) ++marked;
    } else {
      ++dropped;
    }
  }
  batch.stats_.distinct_routes = static_cast<std::uint32_t>(routes);
  batch.stats_.forwarded = forwarded;
  batch.stats_.dropped = dropped;
  batch.stats_.deflected = deflected;
  batch.stats_.marked_hot_potato = marked;
}

}  // namespace kar::dataplane
