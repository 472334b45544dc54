#include "routing/controller.hpp"

#include <stdexcept>
#include <string>

#include "rns/crt.hpp"

namespace kar::routing {

namespace {

/// Resolves the output port from `from` toward `to`, with a readable error.
topo::PortIndex port_toward(const topo::Topology& topo, topo::NodeId from,
                            topo::NodeId to) {
  const auto port = topo.port_to(from, to);
  if (!port) {
    throw std::invalid_argument("Controller: " + topo.name(from) + " and " +
                                topo.name(to) + " are not adjacent");
  }
  return *port;
}

void check_residue_fits(const topo::Topology& topo, topo::NodeId node,
                        topo::PortIndex port) {
  const topo::SwitchId id = topo.switch_id(node);
  if (static_cast<topo::SwitchId>(port) >= id) {
    throw std::invalid_argument(
        "Controller: port " + std::to_string(port) + " of " + topo.name(node) +
        " does not fit its switch id " + std::to_string(id) +
        " (KAR requires id > every port index)");
  }
}

}  // namespace

EncodedRoute Controller::encode_path(
    topo::NodeId src_edge, const std::vector<topo::NodeId>& core_path,
    topo::NodeId dst_edge,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& protection) const {
  const topo::Topology& t = *topo_;
  if (core_path.empty()) {
    throw std::invalid_argument("Controller: empty core path for route " +
                                t.name(src_edge) + " -> " + t.name(dst_edge));
  }
  const auto require_edge = [&](topo::NodeId node, const char* role) {
    if (t.kind(node) != topo::NodeKind::kEdgeNode) {
      throw std::invalid_argument(
          "Controller: route " + std::string(role) + " " + t.name(node) +
          " is a core switch (id " + std::to_string(t.switch_id(node)) +
          "), not an edge node");
    }
  };
  require_edge(src_edge, "source");
  require_edge(dst_edge, "destination");
  if (!t.port_to(src_edge, core_path.front())) {
    throw std::invalid_argument("Controller: source edge " + t.name(src_edge) +
                                " is not attached to " + t.name(core_path.front()));
  }

  EncodedRoute route;
  route.assignments.reserve(core_path.size() + protection.size());
  route.src_edge = src_edge;
  route.dst_edge = dst_edge;

  const auto add_assignment = [&](topo::NodeId node, topo::NodeId next) {
    if (t.kind(node) != topo::NodeKind::kCoreSwitch) {
      throw std::invalid_argument(
          "Controller: " + t.name(node) + " is an edge node, not a core " +
          "switch — only switches carry residues (next hop " + t.name(next) +
          ")");
    }
    const topo::PortIndex port = port_toward(t, node, next);
    check_residue_fits(t, node, port);
    for (const PortAssignment& earlier : route.assignments) {
      if (earlier.node != node) continue;
      if (earlier.port == port) return;  // same assignment twice is harmless
      throw std::invalid_argument(
          "Controller: conflicting port assignments for " + t.name(node) +
          " (switch id " + std::to_string(t.switch_id(node)) + "): port " +
          std::to_string(earlier.port) + " vs port " + std::to_string(port) +
          " (a switch holds exactly one residue per route ID)");
    }
    route.assignments.push_back(
        PortAssignment{node, t.switch_id(node), port});
  };

  // Primary path residues: each switch points at its successor; the egress
  // switch points at the destination edge.
  for (std::size_t i = 0; i < core_path.size(); ++i) {
    const topo::NodeId next =
        (i + 1 < core_path.size()) ? core_path[i + 1] : dst_edge;
    add_assignment(core_path[i], next);
  }
  route.primary_count = route.assignments.size();

  // Driven-deflection protection residues (order irrelevant; Eq. 4 is
  // commutative).
  for (const auto& [node, next] : protection) add_assignment(node, next);

  // CRT encode (validates pairwise coprimality of the basis).
  rns::RnsBasis basis(route.switch_ids());
  route.route_id = basis.encode(route.ports());
  route.bit_length = basis.bit_length();
  return route;
}

EncodedRoute Controller::encode_scenario(const topo::ScenarioRoute& route,
                                         topo::ProtectionLevel level) const {
  const topo::Topology& t = *topo_;
  std::vector<topo::NodeId> core;
  core.reserve(route.core_path.size());
  for (const std::string& name : route.core_path) core.push_back(t.at(name));
  std::vector<std::pair<topo::NodeId, topo::NodeId>> protection;
  for (const auto& a : route.protection_at(level)) {
    protection.emplace_back(t.at(a.switch_name), t.at(a.next_hop_name));
  }
  return encode_path(t.at(route.src_edge), core, t.at(route.dst_edge), protection);
}

std::optional<EncodedRoute> Controller::route_between(
    topo::NodeId src_edge, topo::NodeId dst_edge,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& protection) const {
  const auto path = shortest_path(*topo_, src_edge, dst_edge, path_options_);
  if (!path || path->nodes.size() < 3) return std::nullopt;
  // Strip the edge endpoints to get the core path.
  std::vector<topo::NodeId> core(path->nodes.begin() + 1, path->nodes.end() - 1);
  return encode_path(src_edge, core, dst_edge, protection);
}

std::optional<EncodedRoute> Controller::reencode_from(
    topo::NodeId at_edge, const EncodedRoute& original) const {
  const auto path = shortest_path(*topo_, at_edge, original.dst_edge, path_options_);
  if (!path || path->nodes.size() < 3) return std::nullopt;
  std::vector<topo::NodeId> core(path->nodes.begin() + 1, path->nodes.end() - 1);

  // Keep the original protection assignments that do not collide with the
  // new primary path (a switch carries exactly one residue).
  std::vector<std::pair<topo::NodeId, topo::NodeId>> protection;
  for (std::size_t i = original.primary_count; i < original.assignments.size();
       ++i) {
    const auto& a = original.assignments[i];
    bool on_new_path = false;
    for (const topo::NodeId n : core) {
      if (n == a.node) {
        on_new_path = true;
        break;
      }
    }
    if (on_new_path) continue;
    const auto next = topo_->neighbor(a.node, a.port);
    if (next) protection.emplace_back(a.node, *next);
  }
  return encode_path(at_edge, core, original.dst_edge, protection);
}

}  // namespace kar::routing
