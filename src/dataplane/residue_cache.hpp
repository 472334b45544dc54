// Route-ID -> residue memoization for the KAR forwarding hot path.
//
// A core switch's forwarding decision is the pure function
// `residue = R mod s_i` (paper Eq. 3): s_i is fixed per switch and traffic
// is dominated by a handful of concurrently active route IDs, so a tiny
// direct-mapped memo turns the per-hop multi-limb reduction into one digest
// + one limb compare for every packet after a flow's first. The switch
// stays semantically stateless — the memo holds no routing state, only
// results of a pure function, and evicting or clearing it can never change
// a ForwardDecision (pinned by tests/test_fastpath_differential.cpp).
//
// Collision safety: slots are selected by a cheap FNV-1a digest of the
// route-ID limbs, but a hit also requires full limb equality, so two route
// IDs sharing a slot can only evict each other, never alias.
//
// Observability: the cache always maintains plain local Stats (it is
// confined to one simulated network, which is single-threaded), and can
// additionally be bound to obs counters
// (kar_dataplane_residue_cache_{hits,misses,evictions}_total) via
// bind_counters() — see sim::Network::attach_dataplane_metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "rns/biguint.hpp"
#include "rns/prepared_mod.hpp"

namespace kar::dataplane {

/// Direct-mapped memo of `route_id -> route_id mod m` for one fixed
/// modulus. Capacity is rounded up to a power of two; storage is allocated
/// lazily on first lookup so idle switches cost nothing.
class ResidueCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit ResidueCache(std::size_t capacity = kDefaultCapacity);

  /// The memoized reduction: returns `route_id mod mod.divisor()`,
  /// consulting and filling the cache. Bit-identical to
  /// `route_id.mod_u64(mod.divisor())` by construction.
  [[nodiscard]] std::uint64_t lookup(const rns::BigUint& route_id,
                                     const rns::PreparedMod& mod);

  /// Cumulative local counters (always on; cheap).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Additionally mirror every event into obs counter handles (which may
  /// be shared across switches; updates are relaxed atomics).
  void bind_counters(obs::Counter hits, obs::Counter misses,
                     obs::Counter evictions) noexcept {
    hits_ = hits;
    misses_ = misses;
    evictions_ = evictions;
  }

  /// Drops every entry, keeping the storage (stats and bound counters are
  /// kept).
  void clear() noexcept;

  /// Back to a new cache's state: no entry (storage kept), zero stats and
  /// no bound counters.
  void reset() noexcept;

  /// FNV-1a over the route-ID limbs: the slot-selection digest.
  [[nodiscard]] static std::uint64_t digest(
      const rns::BigUint& route_id) noexcept;

 private:
  struct Entry {
    std::uint64_t digest = 0;
    rns::BigUint key;  ///< Full route ID (alias guard); refilled in place.
    std::uint64_t residue = 0;
    bool valid = false;
  };

  std::vector<Entry> entries_;  ///< Empty until the first lookup.
  std::size_t capacity_;        ///< Power of two.
  Stats stats_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

}  // namespace kar::dataplane
