#include "topology/graph.hpp"

#include <stdexcept>

namespace kar::topo {

NodeId Topology::add_switch(std::string name, SwitchId id) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("Topology: duplicate node name " + name);
  }
  if (id < 2) {
    throw std::invalid_argument("Topology: switch id must be >= 2 for " + name);
  }
  if (by_switch_id_.contains(id)) {
    throw std::invalid_argument("Topology: duplicate switch id " +
                                std::to_string(id));
  }
  const auto handle = static_cast<NodeId>(nodes_.size());
  by_name_.emplace(name, handle);
  by_switch_id_.emplace(id, handle);
  nodes_.push_back(Node{std::move(name), NodeKind::kCoreSwitch, id, {}});
  return handle;
}

NodeId Topology::add_edge_node(std::string name) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("Topology: duplicate node name " + name);
  }
  const auto handle = static_cast<NodeId>(nodes_.size());
  by_name_.emplace(name, handle);
  nodes_.push_back(Node{std::move(name), NodeKind::kEdgeNode, 0, {}});
  return handle;
}

LinkId Topology::add_link(NodeId a, NodeId b, LinkParams params) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("Topology::add_link: bad node handle");
  }
  if (a == b) throw std::invalid_argument("Topology::add_link: self-loop");
  if (link_between(a, b)) {
    throw std::invalid_argument("Topology::add_link: parallel link between " +
                                nodes_[a].name + " and " + nodes_[b].name);
  }
  const auto id = static_cast<LinkId>(links_.size());
  const auto port_a = static_cast<PortIndex>(nodes_[a].ports.size());
  const auto port_b = static_cast<PortIndex>(nodes_[b].ports.size());
  nodes_[a].ports.push_back(id);
  nodes_[b].ports.push_back(id);
  links_.push_back(Link{{a, port_a}, {b, port_b}, params, /*up=*/true});
  return id;
}

void Topology::throw_bad_node() {
  throw std::out_of_range("Topology: bad node handle");
}

void Topology::throw_bad_link() {
  throw std::out_of_range("Topology: bad link handle");
}

const std::string& Topology::name(NodeId node) const { return node_ref(node).name; }

SwitchId Topology::switch_id(NodeId node) const {
  const Node& n = node_ref(node);
  if (n.kind != NodeKind::kCoreSwitch) {
    throw std::logic_error("Topology::switch_id: " + n.name + " is not a core switch");
  }
  return n.switch_id;
}

std::optional<NodeId> Topology::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

NodeId Topology::at(const std::string& name) const {
  const auto found = find(name);
  if (!found) throw std::out_of_range("Topology: no node named " + name);
  return *found;
}

std::optional<NodeId> Topology::find_switch(SwitchId id) const {
  const auto it = by_switch_id_.find(id);
  if (it == by_switch_id_.end()) return std::nullopt;
  return it->second;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].kind == kind) out.push_back(n);
  }
  return out;
}

std::vector<SwitchId> Topology::all_switch_ids() const {
  std::vector<SwitchId> out;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::kCoreSwitch) out.push_back(n.switch_id);
  }
  return out;
}

std::optional<NodeId> Topology::neighbor(NodeId node, PortIndex port) const {
  const LinkId id = link_at(node, port);
  if (id == kInvalidLink) return std::nullopt;
  const Link& l = links_[id];
  return l.a.node == node ? l.b.node : l.a.node;
}

std::optional<PortIndex> Topology::port_to(NodeId from, NodeId to) const {
  const Node& n = node_ref(from);
  for (PortIndex p = 0; p < n.ports.size(); ++p) {
    if (neighbor(from, p) == to) return p;
  }
  return std::nullopt;
}

std::optional<LinkId> Topology::link_between(NodeId a, NodeId b) const {
  if (a >= nodes_.size() || b >= nodes_.size()) return std::nullopt;
  for (const LinkId id : nodes_[a].ports) {
    const Link& l = links_[id];
    if ((l.a.node == a && l.b.node == b) || (l.a.node == b && l.b.node == a)) {
      return id;
    }
  }
  return std::nullopt;
}

std::vector<PortIndex> Topology::available_ports(NodeId node) const {
  std::vector<PortIndex> out;
  const Node& n = node_ref(node);
  for (PortIndex p = 0; p < n.ports.size(); ++p) {
    if (port_available(node, p)) out.push_back(p);
  }
  return out;
}

void Topology::repair_all() {
  for (Link& l : links_) l.up = true;
  ++link_state_version_;
}

LinkId Topology::fail_link(const std::string& a, const std::string& b) {
  const auto id = link_between(at(a), at(b));
  if (!id) {
    throw std::invalid_argument("Topology::fail_link: " + a + " and " + b +
                                " are not adjacent");
  }
  set_link_up(*id, false);
  return *id;
}

}  // namespace kar::topo
