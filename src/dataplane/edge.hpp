// KAR edge nodes (paper §2): the boundary between host protocols and the
// KAR core. The ingress edge stamps the route ID onto packets; the egress
// edge strips it and delivers. An edge that receives a packet *not*
// addressed to it applies one of the paper's two policies (§2.1 final
// remark): bounce the packet back unchanged, or ask the controller to
// re-encode the route ID from here to the destination (the policy used in
// all of the paper's tests).
//
// Under the paper's evaluation policy the controller ignores failure
// notifications, so a re-encode reads only the fixed topology structure
// and link params: its answer depends on the destination alone. The edge
// then memoizes it per destination edge. Like KarSwitch's ResidueCache,
// the memo holds only results of a pure function; an edge whose
// controller honours failures recomputes every time.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/packet.hpp"
#include "routing/controller.hpp"
#include "topology/graph.hpp"

namespace kar::dataplane {

/// What to do with a packet that surfaces at the wrong edge (§2.1).
enum class WrongEdgePolicy : std::uint8_t {
  /// Return the packet to the core unchanged; it keeps walking.
  kBounceBack,
  /// Ask the controller for a fresh route ID from this edge (paper default).
  kReencode,
};

/// Fixed per-packet overhead of the host headers (Ethernet+IP+TCP-ish),
/// excluding the variable-size KAR route-ID field.
inline constexpr std::size_t kBaseHeaderBytes = 54;

/// One KAR edge node.
class EdgeNode {
 public:
  /// `controller` is consulted only for wrong-edge re-encoding; the
  /// referenced objects must outlive the edge node, and the topology's
  /// structure and link params must not change while it lives.
  EdgeNode(const topo::Topology& topology, topo::NodeId node,
           const routing::Controller& controller,
           WrongEdgePolicy policy = WrongEdgePolicy::kReencode);

  [[nodiscard]] topo::NodeId node() const noexcept { return node_; }
  [[nodiscard]] WrongEdgePolicy policy() const noexcept { return policy_; }

  /// Stamps a freshly created packet with `route` (ingress, Fig. 1 Step
  /// II): sets the route ID, endpoints and the wire size for
  /// `payload_bytes` of payload. Throws if this edge is not the route's
  /// source.
  void stamp(Packet& packet, const routing::EncodedRoute& route,
             std::size_t payload_bytes) const;

  /// Handling verdict for a packet arriving at this edge.
  enum class Verdict : std::uint8_t {
    kDeliver,    ///< Packet is addressed here; KAR header removed.
    kReinject,   ///< Packet was re-encoded or bounced; send it back out.
    kDrop,       ///< No route back to the destination.
  };

  /// Processes an arriving packet. On kReinject the packet's KAR header has
  /// been updated (re-encode) or left untouched (bounce) and the packet
  /// should be transmitted out of this edge's uplink again.
  [[nodiscard]] Verdict receive(Packet& packet) const;

 private:
  /// The kReencode answer toward one destination edge.
  struct Reencoded {
    enum class State : std::uint8_t { kUnknown, kRoute, kNoRoute };
    State state = State::kUnknown;
    rns::BigUint route_id;
  };

  /// Writes a fresh route ID from this edge to `dst_edge` into `route_id`;
  /// false when there is no route.
  bool reencode_to(topo::NodeId dst_edge, rns::BigUint& route_id) const;

  const topo::Topology* topo_;
  topo::NodeId node_;
  const routing::Controller* controller_;
  WrongEdgePolicy policy_;
  /// The controller ignores failures, so re-encodes are memoized.
  bool memoize_;
  /// Indexed by destination node; sized on the first memoized re-encode.
  mutable std::vector<Reencoded> reencoded_;
};

}  // namespace kar::dataplane
