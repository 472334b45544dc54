// RouteStore snapshot/restore (docs/daemon.md §snapshot format).
//
// A snapshot captures everything a kard restart needs to resume serving
// without a full re-encode: every endpoint group's endpoints, liveness,
// change version, core path and complete encoding (route-ID limbs, port
// assignments, bit length), once per group; then every route's group,
// tombstone and version stamp as a fixed 13-byte record; plus the
// topology's link up/down states and the engine's epoch version. The topology *structure* is not
// serialized — the daemon rebuilds it from its --topology flag and a
// fingerprint in the header rejects a snapshot taken on a different
// structure.
//
// Format: versioned little-endian binary with an FNV-1a 64 checksum
// trailer over every preceding byte. Serialization is a pure function of
// (store, link states, engine version): serialize → restore → serialize
// is byte-identical (tests/test_snapshot.cpp pins it), which is what lets
// the e2e smoke prove a restart lossless by comparing files.
//
// Torn-write safety: write_snapshot_file() writes to `<path>.tmp`, flushes,
// then renames over `path` — the same never-expose-a-partial-record
// discipline as runner::JsonlWriter, at file granularity. A reader sees
// either the old complete snapshot or the new one, never a torn middle;
// a truncated or bit-flipped file fails the length/checksum checks with a
// clear SnapshotError.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ctrlplane/route_store.hpp"
#include "topology/graph.hpp"

namespace kar::daemon {

/// Malformed, truncated, corrupted or mismatched snapshot input.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Header metadata returned by restore_store().
struct SnapshotInfo {
  std::uint64_t engine_version = 0;
  std::size_t routes = 0;
  std::size_t groups = 0;
  std::size_t live = 0;
  std::size_t withdrawn = 0;
};

/// Structural fingerprint: FNV-1a 64 over node names/kinds/switch IDs and
/// link endpoints (not link up/down states — those are snapshot payload).
[[nodiscard]] std::uint64_t topology_fingerprint(const topo::Topology& topology);

/// Serializes the store, the topology's link states and the engine epoch
/// version into one snapshot byte string.
[[nodiscard]] std::string serialize_store(const topo::Topology& topology,
                                          const ctrlplane::RouteStore& store,
                                          std::uint64_t engine_version);

/// Restores a snapshot into an *empty* store, setting the topology's link
/// states to the recorded ones. Throws SnapshotError on any malformation
/// (bad magic/version, fingerprint mismatch, truncation, checksum) and
/// std::invalid_argument when the store is not empty.
SnapshotInfo restore_store(std::string_view bytes, topo::Topology& topology,
                           ctrlplane::RouteStore& store);

/// Atomically replaces `path` with `bytes` (tmp file + rename). Throws
/// std::runtime_error on I/O failure.
void write_snapshot_file(const std::string& path, std::string_view bytes);

/// Whole-file read. Throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_snapshot_file(const std::string& path);

}  // namespace kar::daemon
