// The KAR core switch: stateless modulo forwarding plus the paper's three
// deflection techniques (§2.1).
//
//   * Hot-Potato (HP): reference lower bound. On the first deflection the
//     packet is marked and thereafter follows a completely random walk.
//   * Any Valid Port (AVP): always applies the modulo; when the residue is
//     not a usable port, picks a random active port (the input port is a
//     legal choice).
//   * Not the Input Port (NIP): Algorithm 1 — like AVP but the input port
//     is never chosen, even when the modulo selects it; avoids two-node
//     ping-pong loops.
//
// A switch holds no per-flow state: its entire forwarding input is its own
// ID, the packet's route ID, the input port, and which local ports are up.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/rng.hpp"
#include "dataplane/packet.hpp"
#include "dataplane/residue_cache.hpp"
#include "rns/prepared_mod.hpp"
#include "topology/graph.hpp"

namespace kar::dataplane {

/// Deflection technique selector (paper §2.1). kNone is the paper's
/// "no deflection" baseline: packets facing an unusable port are dropped.
enum class DeflectionTechnique : std::uint8_t {
  kNone,
  kHotPotato,
  kAnyValidPort,
  kNotInputPort,
};

[[nodiscard]] std::string_view to_string(DeflectionTechnique technique);
/// Parses "none" / "hp" / "avp" / "nip" (case-insensitive). Throws
/// std::invalid_argument listing the valid options on anything else.
[[nodiscard]] DeflectionTechnique technique_from_string(std::string_view name);

/// Outcome of one forwarding decision.
struct ForwardDecision {
  enum class Action : std::uint8_t { kForward, kDrop };
  Action action = Action::kDrop;
  topo::PortIndex out_port = 0;
  /// True when the packet did not follow its encoded residue this hop
  /// (either the residue port was unusable or HP random-walk mode).
  bool deflected = false;
  /// True when this hop *started* the packet's random walk (HP marking).
  bool marked_hot_potato = false;
  DropReason drop_reason = DropReason::kNoViablePort;
};

/// Stateless forwarding engine for one core switch.
class KarSwitch {
 public:
  /// Binds to a core switch of `topology`. The topology must outlive the
  /// switch. Throws std::invalid_argument if `node` is not a core switch.
  KarSwitch(const topo::Topology& topology, topo::NodeId node,
            DeflectionTechnique technique);

  [[nodiscard]] topo::NodeId node() const noexcept { return node_; }
  [[nodiscard]] topo::SwitchId switch_id() const noexcept { return switch_id_; }
  [[nodiscard]] DeflectionTechnique technique() const noexcept { return technique_; }

  /// The pure modulo decision (paper Eq. 3): `route_id mod switch_id`,
  /// computed the naive way. This is the reference semantics every fast
  /// path must reproduce bit-for-bit.
  [[nodiscard]] std::uint64_t residue(const rns::BigUint& route_id) const {
    return route_id.mod_u64(switch_id_);
  }

  /// The same residue through the prepared-reciprocal reduction, gated on
  /// route width (what forward() uses). Routes that fit BigUint's inline
  /// limbs (<= 128 bits) reduce directly: at up to four limbs the reduction
  /// costs no more than the memo's digest and limb compare, and the memo's
  /// per-switch slots cost cache lines besides (BENCH_dataplane.json's 96-
  /// and 128-bit rows; docs/performance.md). Only wider routes, whose limbs
  /// live on the heap, go through the ResidueCache memo. Bit-identical to
  /// residue() either way.
  [[nodiscard]] std::uint64_t residue_fast(const rns::BigUint& route_id) const {
    if (route_id.fits_inline()) return prepared_mod_.reduce(route_id);
    return cache_.lookup(route_id, prepared_mod_);
  }

  /// The memo cache (stats inspection and metrics binding).
  [[nodiscard]] ResidueCache& residue_cache() const noexcept { return cache_; }

  /// One forwarding decision. `in_port` is the port the packet arrived on;
  /// pass std::nullopt for locally originated probes. Randomness is drawn
  /// from `rng` (uniform across candidate ports, matching the paper's
  /// assumption). A Hot-Potato packet already on its random walk never
  /// consults the residue; every other packet gets
  /// decide(residue_fast(route ID), ...).
  [[nodiscard]] ForwardDecision forward(const Packet& packet,
                                        std::optional<topo::PortIndex> in_port,
                                        common::Rng& rng) const;

  /// Algorithm 1 given the residue: follow port `residue_port` when it is
  /// usable (in range, up and, under NIP, not `in_port`), otherwise deflect
  /// by the technique (or drop under kNone). decide(residue(route ID), ...)
  /// is the naive baseline forward() is measured against.
  [[nodiscard]] ForwardDecision decide(std::uint64_t residue_port,
                                       std::optional<topo::PortIndex> in_port,
                                       common::Rng& rng) const;

 private:
  [[nodiscard]] ForwardDecision random_among_available(
      std::optional<topo::PortIndex> excluded_port, bool marked, common::Rng& rng) const;

  const topo::Topology* topo_;
  topo::NodeId node_;
  topo::SwitchId switch_id_;
  DeflectionTechnique technique_;
  rns::PreparedMod prepared_mod_;
  /// Pure-function memo; mutating it never changes a decision, so the
  /// switch keeps value semantics for callers holding it const.
  mutable ResidueCache cache_;
};

}  // namespace kar::dataplane
