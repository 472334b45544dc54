// Packet model for the KAR data plane.
//
// A KAR packet carries the route ID in its (edge-attached) header plus the
// host-protocol payload. The route ID is the *only* thing core switches
// look at (paper §2: core nodes "do not have a forwarding table"); the
// destination-edge field models the inner host header that edge nodes — and
// only edge nodes — inspect. The transport headers (TCP segment / UDP
// datagram) are defined here too, as plain packet formats.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <variant>

#include "rns/biguint.hpp"
#include "topology/graph.hpp"

namespace kar::dataplane {

/// The label the ingress edge sticks onto the packet (paper Fig. 1 Step II)
/// and the egress edge removes (Step VI).
struct KarHeader {
  rns::BigUint route_id;
  /// Hot-Potato marking: once deflected, an HP packet walks randomly
  /// ("once a packet is deflected, it follows a complete random path").
  /// AVP/NIP never set this — they re-apply the modulo at every hop.
  bool deflected = false;
};

/// One SACK block: received segments [begin, end) above the cumulative ACK
/// (RFC 2018, in segment units).
struct SackBlock {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const SackBlock&, const SackBlock&) = default;
};

/// The SACK option of one ACK: up to three blocks stored inline, so an ACK
/// carries them without allocating.
class SackList {
 public:
  static constexpr std::size_t kMaxBlocks = 3;

  SackList() = default;
  /// Copies `blocks`; throws std::length_error beyond kMaxBlocks.
  SackList& operator=(std::span<const SackBlock> blocks) {
    if (blocks.size() > kMaxBlocks) {
      throw std::length_error("SackList: more than three SACK blocks");
    }
    count_ = 0;
    for (const SackBlock& block : blocks) push_back(block);
    return *this;
  }

  /// Appends a block. Precondition: size() < kMaxBlocks.
  void push_back(const SackBlock& block) noexcept { blocks_[count_++] = block; }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] const SackBlock& operator[](std::size_t i) const noexcept {
    return blocks_[i];
  }
  [[nodiscard]] const SackBlock* begin() const noexcept { return blocks_.data(); }
  [[nodiscard]] const SackBlock* end() const noexcept {
    return blocks_.data() + count_;
  }

 private:
  std::array<SackBlock, kMaxBlocks> blocks_{};
  std::uint8_t count_ = 0;
};

/// TCP segment header (sequence space counted in segments, not bytes; the
/// MSS scaling happens in the transport layer).
struct TcpSegment {
  std::uint64_t seq = 0;        ///< Segment index of this data segment.
  std::uint64_t ack = 0;        ///< Next expected segment index (cumulative).
  bool has_data = false;        ///< Data segment vs pure ACK.
  std::uint32_t payload_bytes = 0;
  /// Up to 3 SACK blocks (most recently changed first), empty when the
  /// receiver has no out-of-order data or SACK is disabled.
  SackList sack;
};

/// Connectionless datagram (probe traffic, walk sampling).
struct Datagram {
  std::uint64_t sequence = 0;
};

using TransportHeader = std::variant<std::monostate, TcpSegment, Datagram>;

/// A packet in flight. The fields a core hop reads and writes (the KAR
/// header and the per-hop telemetry) come first, so they share a cache line
/// with the hop fields the simulator's packet pool keeps in front of them.
struct Packet {
  KarHeader kar;

  // -- per-hop telemetry (not part of the wire format) -----------------------
  std::uint32_t hop_count = 0;         ///< Core-switch hops taken so far.
  std::uint32_t deflection_count = 0;  ///< Hops that deviated from the residue.
  std::uint32_t reencode_count = 0;    ///< Wrong-edge controller re-encodes.

  topo::NodeId src_edge = topo::kInvalidNode;
  topo::NodeId dst_edge = topo::kInvalidNode;  ///< Inner destination.
  std::uint64_t flow_id = 0;
  std::uint64_t packet_id = 0;  ///< Unique per injected packet (telemetry).
  std::size_t size_bytes = 0;   ///< Wire size including all headers.
  TransportHeader transport;
  double created_at = 0.0;  ///< Injection timestamp (seconds; telemetry).
};

/// Why a packet left the network other than by delivery.
enum class DropReason : std::uint8_t {
  kNoViablePort,   ///< Forwarding found no usable output (dead end).
  kLinkFailed,     ///< In flight or queued on a link that failed.
  kQueueOverflow,  ///< Drop-tail queue full.
  kTtlExceeded,    ///< Hop budget exhausted (guards random walks).
  kAqmEarly,       ///< RED early drop before the drop-tail limit.
};

[[nodiscard]] constexpr const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kNoViablePort: return "no-viable-port";
    case DropReason::kLinkFailed: return "link-failed";
    case DropReason::kQueueOverflow: return "queue-overflow";
    case DropReason::kTtlExceeded: return "ttl-exceeded";
    case DropReason::kAqmEarly: return "aqm-early";
  }
  return "unknown";
}

}  // namespace kar::dataplane
