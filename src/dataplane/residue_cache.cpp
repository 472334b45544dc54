#include "dataplane/residue_cache.hpp"

#include <bit>

namespace kar::dataplane {

ResidueCache::ResidueCache(std::size_t capacity)
    : capacity_(std::bit_ceil(capacity == 0 ? std::size_t{1} : capacity)) {}

std::uint64_t ResidueCache::digest(const rns::BigUint& route_id) noexcept {
  // FNV-1a, 64-bit, one step per limb.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint32_t limb : route_id.limbs()) {
    h = (h ^ limb) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t ResidueCache::lookup(const rns::BigUint& route_id,
                                   const rns::PreparedMod& mod) {
  if (entries_.empty()) entries_.resize(capacity_);
  const std::uint64_t d = digest(route_id);
  Entry& entry = entries_[d & (capacity_ - 1)];
  if (entry.valid && entry.digest == d && entry.key == route_id) {
    ++stats_.hits;
    hits_.inc();
    return entry.residue;
  }
  ++stats_.misses;
  misses_.inc();
  const std::uint64_t residue = mod.reduce(route_id);
  if (entry.valid) {
    ++stats_.evictions;
    evictions_.inc();
  }
  entry.digest = d;
  entry.key = route_id;  // inline limbs, or the slot's own heap buffer
  entry.residue = residue;
  entry.valid = true;
  return residue;
}

void ResidueCache::clear() noexcept {
  for (Entry& entry : entries_) entry.valid = false;
}

void ResidueCache::reset() noexcept {
  clear();
  stats_ = Stats{};
  bind_counters({}, {}, {});
}

}  // namespace kar::dataplane
