#include "dataplane/edge.hpp"

#include <stdexcept>

namespace kar::dataplane {

EdgeNode::EdgeNode(const topo::Topology& topology, topo::NodeId node,
                   const routing::Controller& controller, WrongEdgePolicy policy)
    : topo_(&topology),
      node_(node),
      controller_(&controller),
      policy_(policy),
      memoize_(controller.path_options().ignore_failures) {
  if (topology.kind(node) != topo::NodeKind::kEdgeNode) {
    throw std::invalid_argument("EdgeNode: " + topology.name(node) +
                                " is not an edge node");
  }
}

void EdgeNode::stamp(Packet& packet, const routing::EncodedRoute& route,
                     std::size_t payload_bytes) const {
  if (route.src_edge != node_) {
    throw std::invalid_argument("EdgeNode::stamp: route does not start at " +
                                topo_->name(node_));
  }
  packet.kar.route_id = route.route_id;
  packet.kar.deflected = false;
  packet.src_edge = node_;
  packet.dst_edge = route.dst_edge;
  packet.size_bytes = kBaseHeaderBytes + route.route_id_bytes() + payload_bytes;
}

EdgeNode::Verdict EdgeNode::receive(Packet& packet) const {
  if (packet.dst_edge == node_) {
    // Egress (Fig. 1 Step VI): strip the KAR header and deliver.
    packet.kar.route_id = rns::BigUint{};
    packet.kar.deflected = false;
    return Verdict::kDeliver;
  }
  switch (policy_) {
    case WrongEdgePolicy::kBounceBack:
      // Unchanged re-entry; an HP packet keeps its random-walk marking.
      return Verdict::kReinject;
    case WrongEdgePolicy::kReencode:
      // The controller computes a fresh route ID from this edge to the
      // destination.
      if (!reencode_to(packet.dst_edge, packet.kar.route_id)) {
        return Verdict::kDrop;
      }
      packet.kar.deflected = false;  // fresh route: HP marking cleared
      packet.reencode_count += 1;
      return Verdict::kReinject;
  }
  throw std::logic_error("EdgeNode::receive: bad policy");
}

bool EdgeNode::reencode_to(topo::NodeId dst_edge,
                           rns::BigUint& route_id) const {
  const auto fresh = [this, dst_edge] {
    // Only the destination matters: the protection assignments
    // reencode_from would reuse cannot be recovered from a route ID, so
    // the fresh path is unprotected.
    routing::EncodedRoute original;
    original.dst_edge = dst_edge;
    return controller_->reencode_from(node_, original);
  };
  if (!memoize_ || dst_edge >= topo_->node_count()) {
    const auto route = fresh();
    if (!route) return false;
    route_id = route->route_id;
    return true;
  }
  if (reencoded_.empty()) reencoded_.resize(topo_->node_count());
  Reencoded& memo = reencoded_[dst_edge];
  if (memo.state == Reencoded::State::kUnknown) {
    const auto route = fresh();
    memo.state = route ? Reencoded::State::kRoute : Reencoded::State::kNoRoute;
    if (route) memo.route_id = route->route_id;
  }
  if (memo.state == Reencoded::State::kNoRoute) return false;
  route_id = memo.route_id;
  return true;
}

}  // namespace kar::dataplane
