// Port-indexed network topology for the KAR routing system.
//
// KAR distinguishes *core switches* (which forward purely by
// `route_id mod switch_id`, paper §2) from *edge nodes* (which push/pop the
// route ID). This module models both plus bidirectional links with
// per-link rate/delay/queue parameters and an up/down failure state. Ports
// are dense indices assigned in the order links are attached — a switch's
// output-port index is exactly the residue the encoder stores for it, so a
// switch ID must exceed every port index it uses (validated by the
// encoder).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kar::topo {

using NodeId = std::uint32_t;    ///< Dense node handle.
using LinkId = std::uint32_t;    ///< Dense link handle.
using PortIndex = std::uint32_t; ///< Per-node port number (0-based).
using SwitchId = std::uint64_t;  ///< KAR modulus; pairwise coprime across the core.

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr LinkId kInvalidLink = static_cast<LinkId>(-1);

/// Core switches forward by modulo; edge nodes terminate the KAR domain.
enum class NodeKind : std::uint8_t { kCoreSwitch, kEdgeNode };

/// RED (Random Early Detection) AQM parameters for a link direction.
/// When set, the simulator probabilistically drops arriving packets as the
/// EWMA of the queue length climbs between `min_th` and `max_th`, instead
/// of waiting for drop-tail overflow. Absent (the default) means pure
/// drop-tail, which keeps every pre-existing scenario byte-identical.
struct RedParams {
  double min_th = 5.0;    ///< EWMA queue length where early drop begins.
  double max_th = 15.0;   ///< EWMA queue length where drop probability hits max_p.
  double max_p = 0.1;     ///< Drop probability at max_th (gentle ramp above).
  double weight = 0.002;  ///< EWMA weight per arrival (Floyd/Jacobson w_q).
};

/// Physical link properties used by the simulator.
struct LinkParams {
  double rate_bps = 200e6;       ///< Serialization rate (default: paper's 200 Mb/s).
  double delay_s = 0.5e-3;       ///< One-way propagation delay.
  std::size_t queue_packets = 100;  ///< Drop-tail queue capacity per direction.
  std::optional<RedParams> red;  ///< RED AQM; nullopt = drop-tail only.
};

/// One endpoint of a link.
struct LinkEnd {
  NodeId node = kInvalidNode;
  PortIndex port = 0;
};

/// A bidirectional link between two node ports.
struct Link {
  LinkEnd a;
  LinkEnd b;
  LinkParams params;
  bool up = true;
};

/// The (port, neighbor) pairs of one node in ascending port order, read in
/// place from the node's port table: walking it allocates nothing. Every
/// port carries a link, so every port yields a pair. Valid until the next
/// add_link() or node insertion on the topology.
class NeighborView {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using value_type = std::pair<PortIndex, NodeId>;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    value_type operator*() const {
      const Link& l = links_[ports_[port_]];
      return {port_, l.a.node == node_ ? l.b.node : l.a.node};
    }
    iterator& operator++() {
      ++port_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++port_;
      return before;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class NeighborView;
    iterator(const Link* links, const LinkId* ports, NodeId node, PortIndex port)
        : links_(links), ports_(ports), node_(node), port_(port) {}
    const Link* links_ = nullptr;
    const LinkId* ports_ = nullptr;
    NodeId node_ = kInvalidNode;
    PortIndex port_ = 0;
  };

  NeighborView(const Link* links, const std::vector<LinkId>& ports, NodeId node)
      : links_(links), ports_(ports.data()),
        count_(static_cast<PortIndex>(ports.size())), node_(node) {}

  [[nodiscard]] iterator begin() const { return {links_, ports_, node_, 0}; }
  [[nodiscard]] iterator end() const { return {links_, ports_, node_, count_}; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  const Link* links_;
  const LinkId* ports_;
  PortIndex count_;
  NodeId node_;
};

/// The KAR network graph.
class Topology {
 public:
  /// Adds a core switch with its (supposedly coprime) KAR ID.
  /// Name must be unique. Throws std::invalid_argument on duplicates.
  NodeId add_switch(std::string name, SwitchId id);

  /// Adds an edge node (no KAR ID; terminates the KAR domain).
  NodeId add_edge_node(std::string name);

  /// Connects two nodes with a new link; allocates the next free port index
  /// on each side and returns the link handle.
  LinkId add_link(NodeId a, NodeId b, LinkParams params = {});

  // -- node queries ----------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] NodeKind kind(NodeId node) const { return node_ref(node).kind; }
  [[nodiscard]] const std::string& name(NodeId node) const;
  [[nodiscard]] SwitchId switch_id(NodeId node) const;  ///< Throws for edge nodes.
  [[nodiscard]] std::size_t port_count(NodeId node) const {
    return node_ref(node).ports.size();
  }

  /// Node lookup by unique name; nullopt when absent.
  [[nodiscard]] std::optional<NodeId> find(const std::string& name) const;
  /// Node lookup by name that throws with a useful message when absent.
  [[nodiscard]] NodeId at(const std::string& name) const;
  /// Core switch lookup by KAR ID.
  [[nodiscard]] std::optional<NodeId> find_switch(SwitchId id) const;

  /// All node handles of a given kind, in insertion order.
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(NodeKind kind) const;
  /// Switch IDs of every core switch, in insertion order.
  [[nodiscard]] std::vector<SwitchId> all_switch_ids() const;

  // -- port / link queries ---------------------------------------------------
  /// The link attached to a port, or kInvalidLink when the port is unused.
  [[nodiscard]] LinkId link_at(NodeId node, PortIndex port) const {
    const Node& n = node_ref(node);
    return port < n.ports.size() ? n.ports[port] : kInvalidLink;
  }
  /// The node on the far side of a port; nullopt if no link is attached.
  [[nodiscard]] std::optional<NodeId> neighbor(NodeId node, PortIndex port) const;
  /// The local port that reaches `to`, if the nodes are adjacent.
  [[nodiscard]] std::optional<PortIndex> port_to(NodeId from, NodeId to) const;
  /// All (port, neighbor) pairs of a node, ascending by port; see
  /// NeighborView.
  [[nodiscard]] NeighborView neighbors(NodeId node) const {
    return {links_.data(), node_ref(node).ports, node};
  }

  [[nodiscard]] const Link& link(LinkId id) const {
    if (id >= links_.size()) throw_bad_link();
    return links_[id];
  }
  [[nodiscard]] Link& link(LinkId id) {
    if (id >= links_.size()) throw_bad_link();
    return links_[id];
  }
  /// The link joining two adjacent nodes, if any.
  [[nodiscard]] std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  // -- failure state ---------------------------------------------------------
  void set_link_up(LinkId id, bool up) {
    link(id).up = up;
    ++link_state_version_;
  }
  /// Bumped by every link-state write (set_link_up, fail_link,
  /// repair_all), so a cache derived from link states can tell it is stale.
  /// Link states must only be written through these calls.
  [[nodiscard]] std::uint64_t link_state_version() const noexcept {
    return link_state_version_;
  }
  [[nodiscard]] bool link_up(LinkId id) const { return link(id).up; }
  /// True iff the port has a link and that link is up.
  [[nodiscard]] bool port_available(NodeId node, PortIndex port) const {
    const LinkId id = link_at(node, port);
    return id != kInvalidLink && links_[id].up;
  }
  /// Ports of `node` whose links are currently up.
  [[nodiscard]] std::vector<PortIndex> available_ports(NodeId node) const;
  /// Restores every link to the up state.
  void repair_all();

  /// Fails the link between two named nodes. Throws if they are not adjacent.
  LinkId fail_link(const std::string& a, const std::string& b);

 private:
  struct Node {
    std::string name;
    NodeKind kind;
    SwitchId switch_id = 0;                 // valid only for core switches
    std::vector<LinkId> ports;              // port index -> link
  };

  // The per-hop reads above are inline; their bounds-check throws stay out
  // of line so the inlined code carries only a compare and a call.
  [[nodiscard]] const Node& node_ref(NodeId node) const {
    if (node >= nodes_.size()) throw_bad_node();
    return nodes_[node];
  }
  [[noreturn]] static void throw_bad_node();
  [[noreturn]] static void throw_bad_link();

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::unordered_map<SwitchId, NodeId> by_switch_id_;
  std::uint64_t link_state_version_ = 0;
};

}  // namespace kar::topo
