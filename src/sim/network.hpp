// Packet-level network simulator: the emulation substrate of the paper's
// evaluation (Mininet + modified OpenFlow software switch), rebuilt as a
// deterministic discrete-event simulation.
//
// Model:
//   * each link direction is a serializing server (rate = link rate) with a
//     drop-tail queue and fixed propagation delay;
//   * each core switch applies the KAR forwarding pipeline (modulo +
//     deflection) with a constant processing latency;
//   * link failures take effect immediately: queued and in-flight packets
//     on the failed link are lost, and switches see the port as
//     unavailable from that instant (local failure detection);
//   * edge nodes stamp/strip route IDs and run the wrong-edge policy.
//
// Packet lifecycle: a packet enters the network's PacketPool at inject and
// keeps that slot until it is delivered or dropped (any drop reason).
// Its per-hop events (link arrival, switch and edge
// processing) are handler-free EventQueue packet events that carry only the
// slot; the hop fields they need ride in the slot beside the packet. A hop
// therefore neither moves the packet nor allocates. A link direction
// delivers in the order it transmits: its busy_until only grows and its
// delay is fixed. So its arrivals go on that direction's own EventQueue
// channel, 2 * link + dir, and only the earliest of them waits in a heap.
// A fail or repair resets busy_until to now, so the next arrival can come
// before the dead ones still in flight; the channel sends it to the heap.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "dataplane/edge.hpp"
#include "obs/metrics.hpp"
#include "routing/failover_fib.hpp"
#include "dataplane/packet.hpp"
#include "dataplane/switch.hpp"
#include "routing/controller.hpp"
#include "sim/event_queue.hpp"
#include "topology/graph.hpp"

namespace kar::sim {

/// Simulation knobs.
struct NetworkConfig {
  /// Non-null: the core switches forward by these OpenFlow fast-failover
  /// tables (the Table 2 baseline) and ignore the route ID. Null: KAR's
  /// modulo forwarding with deflection (this paper). Must outlive the
  /// network.
  const routing::FailoverFib* failover_fib = nullptr;
  dataplane::DeflectionTechnique technique =
      dataplane::DeflectionTechnique::kNotInputPort;
  dataplane::WrongEdgePolicy wrong_edge_policy =
      dataplane::WrongEdgePolicy::kReencode;
  /// Per-hop switch processing latency (software switch forwarding cost).
  double switch_latency_s = 20e-6;
  /// How long after a physical failure the adjacent switches *detect* it
  /// (loss-of-signal / BFD). During the window the port still looks up, so
  /// traffic is blackholed into the dead link — deflection can only start
  /// once detection fires. 0 = instantaneous detection (the paper's
  /// implicit assumption).
  double failure_detection_delay_s = 0.0;
  /// Hop budget per packet; guards unbounded random walks (HP) and the
  /// Fig. 8 protection loop against infinite circulation.
  std::uint32_t max_hops = 4096;
  std::uint64_t seed = 1;
};

/// Aggregate data-plane counters.
struct NetworkCounters {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t hops = 0;
  std::uint64_t deflections = 0;
  std::uint64_t reencodes = 0;
  std::uint64_t bounces = 0;
  std::uint64_t drop_no_viable_port = 0;
  std::uint64_t drop_link_failed = 0;
  std::uint64_t drop_queue_overflow = 0;
  std::uint64_t drop_ttl = 0;
  std::uint64_t drop_aqm_early = 0;

  [[nodiscard]] std::uint64_t total_drops() const noexcept {
    return drop_no_viable_port + drop_link_failed + drop_queue_overflow +
           drop_ttl + drop_aqm_early;
  }
};

/// Optional per-packet trace events (tests, debugging, walk analysis,
/// runtime invariant checking).
struct TraceEvent {
  enum class Kind : std::uint8_t { kInject, kHop, kDeliver, kDrop, kReencode, kBounce };
  Kind kind;
  double time;
  std::uint64_t packet_id;
  topo::NodeId node;                ///< Where the event happened.
  topo::PortIndex out_port;         ///< For kHop: chosen output port.
  bool deflected;                   ///< For kHop: deviated from the residue.
  dataplane::DropReason drop_reason;  ///< For kDrop.
  /// For kHop at a core switch: the port the packet arrived on.
  topo::PortIndex in_port = 0;
  /// The packet at the moment of the event. Non-owning; valid only for the
  /// duration of the hook call — copy what you need.
  const dataplane::Packet* packet = nullptr;
};

/// The simulated KAR network.
class Network : private PacketEventSink {
 public:
  /// `topology` is mutated by failure injection and must outlive the
  /// network; `controller` serves wrong-edge re-encodes.
  Network(topo::Topology& topology, const routing::Controller& controller,
          NetworkConfig config = {});
  // Pending events point back at this object.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] EventQueue& events() noexcept { return events_; }
  [[nodiscard]] double now() const noexcept { return events_.now(); }
  [[nodiscard]] const topo::Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const NetworkCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  /// Packets currently in flight (held pool slots).
  [[nodiscard]] std::size_t packets_in_flight() const noexcept {
    return pool_.in_use();
  }

  /// The edge-node object bound to `node` (for route stamping).
  /// Throws std::invalid_argument if `node` is not an edge node.
  [[nodiscard]] const dataplane::EdgeNode& edge_at(topo::NodeId node) const;

  /// Registers the handler invoked when a packet is delivered at `edge`.
  using DeliveryHandler = std::function<void(const dataplane::Packet&)>;
  void set_delivery_handler(topo::NodeId edge, DeliveryHandler handler);

  /// Installs a trace hook receiving every packet event (may be empty).
  void set_trace_hook(std::function<void(const TraceEvent&)> hook) {
    trace_ = std::move(hook);
  }

  /// Installs a hook invoked on every link state change (failure/repair),
  /// with the link and its new state. Models the data plane's failure
  /// notifications toward a control plane (which may react with delay).
  using LinkStateHook = std::function<void(topo::LinkId, bool up)>;
  void set_link_state_hook(LinkStateHook hook) { link_state_hook_ = std::move(hook); }

  /// Back to the state a new network on the same topology, controller and
  /// config has, with the random stream seeded from `seed`: empty event
  /// queue at time 0, empty packet pool, pristine link state (the topology's
  /// link-up flags as they were at construction), zero counters and packet
  /// ids, empty residue caches with zero stats and no bound metrics, and no
  /// trace, link-state or delivery hook. Storage is kept, as are the edges'
  /// re-encode memos: the controller ignores failures, so their answers
  /// never change.
  void reset(std::uint64_t seed);

  /// Injects a packet from `edge` into the core at the current time. The
  /// packet must already be stamped (see EdgeNode::stamp).
  void inject(topo::NodeId edge, dataplane::Packet packet);

  /// Schedules a bidirectional link failure / repair.
  void fail_link_at(double time, const std::string& node_a, const std::string& node_b);
  void repair_link_at(double time, const std::string& node_a, const std::string& node_b);

  /// Direct (immediate) failure control. Throws std::out_of_range for a
  /// link the topology lacks.
  void fail_link_now(topo::LinkId link);
  void repair_link_now(topo::LinkId link);

  /// Registers the residue-cache counter families
  /// (kar_dataplane_residue_cache_{hits,misses,evictions}_total) in
  /// `registry` and binds them to every core switch's cache. The series are
  /// shared across switches (one network-wide total per family).
  /// obs::NetworkObserver calls this when metrics are enabled.
  void attach_dataplane_metrics(obs::MetricsRegistry& registry,
                                const obs::Labels& labels);

  /// Sum of the per-switch residue-cache stats (tests, benches).
  [[nodiscard]] dataplane::ResidueCache::Stats residue_cache_stats() const;

 private:
  /// Packets in flight, addressed by slot index (the Click `Packet*` handle,
  /// as an index). Storage grows in fixed chunks that never move, so a slot's
  /// address is stable while it is held: a delivery handler reading its
  /// packet may inject new ones. Released slots are reused LIFO; once the
  /// pool has reached its peak occupancy it never allocates again.
  class PacketPool {
   public:
    /// Where a pooled packet goes when its pending event fires.
    struct Hop {
      topo::NodeId node = 0;     ///< Far end (arrival) / processing node.
      topo::PortIndex port = 0;  ///< Arrival port / output port.
      topo::LinkId link = 0;     ///< Link being crossed (arrival only).
      std::uint8_t dir = 0;      ///< Its direction (arrival only).
      std::uint64_t epoch = 0;   ///< Direction epoch at transmit (arrival only).
    };
    /// The hop first, then the packet, which starts with its KAR header and
    /// hop counters: the fields every hop reads share the slot's first 64
    /// bytes. (Aligning slots to 64 bytes as well cost peak RSS and gained
    /// nothing; docs/performance.md.)
    struct Slot {
      Hop hop;
      dataplane::Packet packet;
    };
    static_assert(offsetof(Slot, packet) +
                          offsetof(dataplane::Packet, deflection_count) +
                          sizeof(std::uint32_t) <=
                      64,
                  "the hop, the KAR header and the hop counters must lie in "
                  "the slot's first 64 bytes");

    /// Moves `packet` into a free slot and returns the slot's index.
    std::uint32_t acquire(dataplane::Packet&& packet);
    /// Returns `slot` to the free list; its contents are overwritten on reuse.
    void release(std::uint32_t slot) noexcept { free_.push_back(slot); }
    /// Forgets every slot, keeping the chunks: slots are handed out from 0
    /// again, as by a new pool.
    void reset() noexcept {
      free_.clear();
      created_ = 0;
    }

    [[nodiscard]] Slot& operator[](std::uint32_t slot) noexcept {
      return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
    }
    /// Slots currently held (packets in flight).
    [[nodiscard]] std::size_t in_use() const noexcept {
      return created_ - free_.size();
    }

   private:
    static constexpr std::uint32_t kChunkBits = 8;
    static constexpr std::uint32_t kChunkSize = 1U << kChunkBits;

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    /// Free slot indices; capacity always covers every slot created, so
    /// release() never allocates.
    std::vector<std::uint32_t> free_;
    std::uint32_t created_ = 0;
  };

  struct DirectionState {
    double busy_until = 0.0;
    std::size_t queued = 0;
    std::uint64_t epoch = 0;  ///< Bumped on failure: invalidates in-flight packets.
    // RED AQM state (only touched when the link carries RedParams).
    double red_avg = 0.0;          ///< EWMA of the queue length at arrivals.
    double red_last_arrival = 0.0; ///< For idle-time decay of the average.
    std::uint64_t red_count = 0;   ///< Arrivals since the last early drop.
  };

  /// RED admission test for one arrival at a link direction carrying
  /// RedParams. Updates the EWMA and drop counter; true = enqueue.
  [[nodiscard]] bool red_admit(const topo::RedParams& red,
                               DirectionState& state, double tx_time);

  /// PacketEventSink: the per-hop events, dispatched by kind.
  void on_packet_event(EventKind kind, std::uint32_t slot) override;
  /// Admits a new packet: pool slot, id, creation time, inject trace.
  std::uint32_t admit(topo::NodeId edge, dataplane::Packet&& packet);
  void link_arrival(std::uint32_t slot);
  void arrive_at(topo::NodeId node, topo::PortIndex in_port, std::uint32_t slot);
  void forward_from_switch(topo::NodeId node, topo::PortIndex in_port,
                           std::uint32_t slot);
  /// Everything after a forwarding decision: counters, TTL, trace, and the
  /// switch-latency transmit — shared by the KAR and fast-failover paths.
  void apply_decision(topo::NodeId node, topo::PortIndex in_port,
                      std::uint32_t slot,
                      const dataplane::ForwardDecision& decision);
  void transmit(topo::NodeId from, topo::PortIndex out_port, std::uint32_t slot);
  /// Counts and traces the drop, then frees the packet's slot.
  void drop(std::uint32_t slot, topo::NodeId at, dataplane::DropReason reason);
  void trace(TraceEvent event);

  topo::Topology* topo_;
  const routing::Controller* controller_;
  NetworkConfig config_;
  EventQueue events_;
  common::Rng rng_;
  NetworkCounters counters_;
  PacketPool pool_;
  // Indexed by NodeId; exactly one of the two is engaged per node.
  std::vector<std::optional<dataplane::KarSwitch>> switches_;
  std::vector<std::optional<dataplane::EdgeNode>> edges_;
  std::unordered_map<topo::NodeId, DeliveryHandler> delivery_;
  std::vector<std::array<DirectionState, 2>> link_state_;  // per link
  /// Physical link state; diverges from the topology's (detected) state
  /// during the failure-detection window.
  std::vector<bool> physically_up_;
  /// The topology's link-up flags at construction, restored by reset().
  std::vector<bool> pristine_up_;
  std::function<void(const TraceEvent&)> trace_;
  LinkStateHook link_state_hook_;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace kar::sim
