#include "daemon/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "routing/encoded_route.hpp"

namespace kar::daemon {

namespace {

// "KARDSNP1" little-endian.
constexpr std::uint64_t kMagic = 0x31504e5344524b41ull;
// v2 stores each endpoint group's state once plus a fixed record per
// route; v1 (a full copy per route) is rejected.
constexpr std::uint32_t kFormatVersion = 2;

// Route record flag bits.
constexpr std::uint8_t kWithdrawn = 1;
constexpr std::uint8_t kAdmittedDead = 2;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;

std::uint64_t fnv1a64(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t fnv1a64_u64(std::uint64_t hash, std::uint64_t value) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (value >> (8 * i)) & 0xff;
  return fnv1a64(hash, bytes, sizeof(bytes));
}

/// Little-endian byte appender.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  [[nodiscard]] std::string take() { return std::move(out_); }
  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader; every violation is a SnapshotError.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const auto* p = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto* p = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

 private:
  const unsigned char* take(std::size_t n) {
    if (remaining() < n) {
      throw SnapshotError("kard snapshot: truncated at byte " +
                          std::to_string(offset_) + " (need " +
                          std::to_string(n) + " more, have " +
                          std::to_string(remaining()) + ")");
    }
    const auto* p =
        reinterpret_cast<const unsigned char*>(bytes_.data() + offset_);
    offset_ += n;
    return p;
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

/// A guard against absurd counts from a corrupted (but checksum-passing
/// prefix of a) file: no snapshot field legitimately exceeds this.
constexpr std::uint64_t kSaneCount = 1ull << 32;

std::uint64_t checked_count(std::uint64_t n, const char* what) {
  if (n > kSaneCount) {
    throw SnapshotError(std::string("kard snapshot: implausible ") + what +
                        " count " + std::to_string(n));
  }
  return n;
}

}  // namespace

std::uint64_t topology_fingerprint(const topo::Topology& topology) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a64_u64(hash, topology.node_count());
  hash = fnv1a64_u64(hash, topology.link_count());
  for (topo::NodeId node = 0; node < topology.node_count(); ++node) {
    const std::string& name = topology.name(node);
    hash = fnv1a64(hash, name.data(), name.size());
    hash = fnv1a64_u64(hash, static_cast<std::uint64_t>(topology.kind(node)));
    if (topology.kind(node) == topo::NodeKind::kCoreSwitch) {
      hash = fnv1a64_u64(hash, topology.switch_id(node));
    }
  }
  for (topo::LinkId id = 0; id < topology.link_count(); ++id) {
    const topo::Link& link = topology.link(id);
    hash = fnv1a64_u64(hash, link.a.node);
    hash = fnv1a64_u64(hash, link.a.port);
    hash = fnv1a64_u64(hash, link.b.node);
    hash = fnv1a64_u64(hash, link.b.port);
  }
  return hash;
}

std::string serialize_store(const topo::Topology& topology,
                            const ctrlplane::RouteStore& store,
                            std::uint64_t engine_version) {
  Writer w;
  w.u64(kMagic);
  w.u32(kFormatVersion);
  w.u64(topology_fingerprint(topology));
  w.u64(engine_version);

  // Link up/down bitmap, packed into u64 words.
  const std::size_t links = topology.link_count();
  w.u32(static_cast<std::uint32_t>(links));
  for (std::size_t word = 0; word * 64 < links; ++word) {
    std::uint64_t bits = 0;
    for (std::size_t bit = 0; bit < 64 && word * 64 + bit < links; ++bit) {
      if (topology.link_up(static_cast<topo::LinkId>(word * 64 + bit))) {
        bits |= std::uint64_t{1} << bit;
      }
    }
    w.u64(bits);
  }

  // Each group's shared state once, then one fixed-size record per route.
  w.u32(static_cast<std::uint32_t>(store.group_count()));
  for (ctrlplane::GroupId id = 0; id < store.group_count(); ++id) {
    const ctrlplane::RouteGroup& group = store.group(id);
    w.u32(group.src);
    w.u32(group.dst);
    w.u8(group.live ? 1 : 0);
    w.u64(group.version);
    if (!group.live) continue;
    w.u32(static_cast<std::uint32_t>(group.core_path.size()));
    for (const topo::NodeId node : group.core_path) w.u32(node);
    const routing::EncodedRoute& route = group.route;
    w.u32(static_cast<std::uint32_t>(route.route_id.limbs().size()));
    for (const std::uint32_t limb : route.route_id.limbs()) w.u32(limb);
    w.u32(static_cast<std::uint32_t>(route.assignments.size()));
    for (const routing::PortAssignment& a : route.assignments) {
      w.u32(a.node);
      w.u64(a.switch_id);
      w.u32(a.port);
    }
    w.u32(static_cast<std::uint32_t>(route.primary_count));
    w.u32(route.src_edge);
    w.u32(route.dst_edge);
    w.u32(static_cast<std::uint32_t>(route.bit_length));
  }
  w.u64(store.size());
  for (ctrlplane::RouteKey key = 0; key < store.size(); ++key) {
    const ctrlplane::StoredRoute& entry = store.route(key);
    w.u32(entry.group);
    w.u8(static_cast<std::uint8_t>((entry.withdrawn ? kWithdrawn : 0) |
                                   (entry.admitted_dead ? kAdmittedDead : 0)));
    w.u64(entry.stamp);
  }

  const std::uint64_t checksum =
      fnv1a64(kFnvOffset, w.bytes().data(), w.bytes().size());
  w.u64(checksum);
  return w.take();
}

SnapshotInfo restore_store(std::string_view bytes, topo::Topology& topology,
                           ctrlplane::RouteStore& store) {
  if (store.size() != 0) {
    throw std::invalid_argument(
        "kard snapshot: restore target store is not empty");
  }
  if (bytes.size() < 8 + 4 + 8 + 8 + 4 + 4 + 8 + 8) {
    throw SnapshotError("kard snapshot: file too short (" +
                        std::to_string(bytes.size()) +
                        " bytes) to hold a header");
  }
  // Verify the checksum over everything before the 8-byte trailer first:
  // it distinguishes corruption from version skew before any field parse.
  const std::size_t body = bytes.size() - 8;
  Reader trailer(bytes.substr(body));
  const std::uint64_t recorded = trailer.u64();
  const std::uint64_t computed = fnv1a64(kFnvOffset, bytes.data(), body);
  if (recorded != computed) {
    char want[32], got[32];
    std::snprintf(want, sizeof(want), "%016llx",
                  static_cast<unsigned long long>(recorded));
    std::snprintf(got, sizeof(got), "%016llx",
                  static_cast<unsigned long long>(computed));
    throw SnapshotError(std::string("kard snapshot: checksum mismatch "
                                    "(recorded ") +
                        want + ", computed " + got +
                        ") — file truncated or corrupted");
  }

  Reader r(bytes.substr(0, body));
  if (r.u64() != kMagic) {
    throw SnapshotError("kard snapshot: bad magic — not a kard snapshot");
  }
  const std::uint32_t format = r.u32();
  if (format != kFormatVersion) {
    throw SnapshotError("kard snapshot: unsupported format version " +
                        std::to_string(format) + " (expected " +
                        std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t fingerprint = r.u64();
  if (fingerprint != topology_fingerprint(topology)) {
    throw SnapshotError(
        "kard snapshot: topology fingerprint mismatch — snapshot was taken "
        "on a different topology structure");
  }
  SnapshotInfo info;
  info.engine_version = r.u64();

  const std::uint32_t links = r.u32();
  if (links != topology.link_count()) {
    throw SnapshotError("kard snapshot: link count " + std::to_string(links) +
                        " does not match topology (" +
                        std::to_string(topology.link_count()) + ")");
  }
  for (std::size_t word = 0; word * 64 < links; ++word) {
    const std::uint64_t bits = r.u64();
    for (std::size_t bit = 0; bit < 64 && word * 64 + bit < links; ++bit) {
      topology.set_link_up(static_cast<topo::LinkId>(word * 64 + bit),
                           (bits >> bit) & 1);
    }
  }

  /// A group record, held until its routes have recreated the group.
  struct GroupRecord {
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    bool live = false;
    std::uint64_t version = 0;
    std::vector<topo::NodeId> core;
    routing::EncodedRoute route;
  };
  // Records are appended as they parse, so a bogus count runs out of
  // bytes instead of allocating up front.
  std::vector<GroupRecord> groups;
  const std::size_t group_count = checked_count(r.u32(), "group");
  for (std::size_t g = 0; g < group_count; ++g) {
    GroupRecord& group = groups.emplace_back();
    group.src = r.u32();
    group.dst = r.u32();
    if (group.src >= topology.node_count() ||
        group.dst >= topology.node_count() ||
        topology.kind(group.src) != topo::NodeKind::kEdgeNode ||
        topology.kind(group.dst) != topo::NodeKind::kEdgeNode) {
      throw SnapshotError("kard snapshot: group " + std::to_string(g) +
                          " does not join two edge nodes of the topology");
    }
    group.live = (r.u8() & 1) != 0;
    group.version = r.u64();
    if (!group.live) continue;
    group.core.resize(checked_count(r.u32(), "core-path"));
    for (topo::NodeId& node : group.core) node = r.u32();
    if (group.core.empty() ||
        std::any_of(group.core.begin(), group.core.end(),
                    [&](topo::NodeId n) { return n >= topology.node_count(); })) {
      throw SnapshotError("kard snapshot: group " + std::to_string(g) +
                          " has a core path outside the topology");
    }
    routing::EncodedRoute& route = group.route;
    const std::size_t limbs = checked_count(r.u32(), "limb");
    for (std::size_t l = 0; l < limbs; ++l) {
      // Rebuild little-endian: limb l contributes value << (32*l).
      route.route_id += rns::BigUint(r.u32()) << (32 * l);
    }
    route.assignments.resize(checked_count(r.u32(), "assignment"));
    for (routing::PortAssignment& a : route.assignments) {
      a.node = r.u32();
      a.switch_id = r.u64();
      a.port = r.u32();
    }
    route.primary_count = r.u32();
    route.src_edge = r.u32();
    route.dst_edge = r.u32();
    route.bit_length = r.u32();
  }

  // Routes in key order recreate the groups in first-appearance order,
  // which is the order the groups were recorded in.
  info.routes = checked_count(r.u64(), "route");
  for (std::size_t i = 0; i < info.routes; ++i) {
    const std::uint32_t id = r.u32();
    if (id >= groups.size()) {
      throw SnapshotError("kard snapshot: route " + std::to_string(i) +
                          " references group " + std::to_string(id) +
                          " of " + std::to_string(groups.size()));
    }
    const ctrlplane::RouteKey key = store.add(groups[id].src, groups[id].dst);
    if (store.route(key).group != id) {
      throw SnapshotError("kard snapshot: route " + std::to_string(i) +
                          " names group " + std::to_string(id) +
                          ", which is out of first-appearance order");
    }
    const std::uint8_t flags = r.u8();
    const std::uint64_t stamp = r.u64();
    if ((flags & kWithdrawn) != 0) {
      store.set_withdrawn(key, stamp);
      ++info.withdrawn;
    } else {
      store.set_stamp(key, stamp, (flags & kAdmittedDead) != 0);
    }
  }
  if (store.group_count() != groups.size()) {
    throw SnapshotError("kard snapshot: group " +
                        std::to_string(store.group_count()) + " has no routes");
  }
  for (ctrlplane::GroupId id = 0; id < groups.size(); ++id) {
    GroupRecord& group = groups[id];
    if (group.live) {
      store.set_encoding(id, group.core, group.route, group.version);
    } else if (group.version != 0) {
      store.set_dead(id, group.version);
    }
  }
  info.groups = groups.size();
  info.live = store.live_count();
  if (r.remaining() != 0) {
    throw SnapshotError("kard snapshot: " + std::to_string(r.remaining()) +
                        " trailing bytes after the last route record");
  }
  return info;
}

void write_snapshot_file(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("kard snapshot: cannot open " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("kard snapshot: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("kard snapshot: cannot rename " + tmp + " to " +
                             path);
  }
}

std::string read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("kard snapshot: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

}  // namespace kar::daemon
