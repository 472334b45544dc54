// A flat, open-addressed index from 64-bit hashes to positions in a
// caller-owned, append-only entry vector (the engine's per-destination
// encoding and protection memos).
//
// The index stores no keys: a lookup hands every position whose stored hash
// matches to the caller's predicate, which checks the entry itself, so a
// hash collision costs one comparison and never a wrong answer.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace kar::ctrlplane {

class HashIndex {
 public:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// The first position under `hash` that `matches(position)` accepts;
  /// kNone when there is none.
  template <typename Match>
  [[nodiscard]] std::uint32_t find(std::uint64_t hash, Match&& matches) const {
    if (slots_.empty()) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.position == kNone) return kNone;
      if (slot.hash == hash && matches(slot.position)) return slot.position;
    }
  }

  /// Records `position` under `hash` (duplicates are the caller's to
  /// avoid: find() first).
  void insert(std::uint64_t hash, std::uint32_t position) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(hash, position);
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t position = kNone;
  };

  void place(std::uint64_t hash, std::uint32_t position) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i].position != kNone) i = (i + 1) & mask;
    slots_[i] = Slot{hash, position};
  }

  /// Doubles the table (load factor <= 1/2) and re-places every slot.
  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.position != kNone) place(slot.hash, slot.position);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// Mixes `value` into `hash` (splitmix64 finalizer over the xor).
[[nodiscard]] inline std::uint64_t hash_mix(std::uint64_t hash,
                                            std::uint64_t value) noexcept {
  std::uint64_t z = hash ^ (value + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace kar::ctrlplane
