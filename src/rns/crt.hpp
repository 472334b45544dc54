// Chinese-Remainder-Theorem route-ID encoding (paper §2.2, Eq. 1-9).
//
// A KAR route is the pair (S, P): pairwise-coprime switch IDs S and the
// output-port index p_i each switch s_i must use. The route ID R is the
// unique integer in [0, M), M = Π s_i, with R mod s_i == p_i for all i —
// reconstructed via the CRT. Core switches recover their port with a single
// modulo (BigUint::mod_u64); switch order is irrelevant (the sum in Eq. 4 is
// commutative), which is exactly what lets KAR graft disjoint protection
// segments into the same route ID (§2.2, "Driven Deflection Forwarding
// Paths").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rns/biguint.hpp"

namespace kar::rns {

/// A fixed RNS basis (a set of pairwise-coprime moduli >= 2). Encoding
/// runs Garner's mixed-radix CRT: it yields the same R as Eq. 4 (the CRT
/// solution in [0, M) is unique) with O(N) word-by-BigUint steps and no
/// BigUint division.
class RnsBasis {
 public:
  /// Validates the moduli: each >= 2 and pairwise coprime.
  /// Throws std::invalid_argument otherwise.
  explicit RnsBasis(std::vector<std::uint64_t> moduli);

  [[nodiscard]] const std::vector<std::uint64_t>& moduli() const noexcept {
    return moduli_;
  }

  /// M = Π s_i (Eq. 1): the number of distinct route IDs this basis spans.
  [[nodiscard]] const BigUint& range() const noexcept { return range_; }

  /// Maximum route-ID bit length, ceil(log2(M-1)) (Eq. 9).
  [[nodiscard]] std::size_t bit_length() const noexcept { return bit_length_; }

  /// CRT reconstruction (Eq. 4): the unique R in [0, M) with
  /// R mod moduli()[i] == residues[i]. Throws std::invalid_argument if the
  /// residue count mismatches or any residue >= its modulus.
  [[nodiscard]] BigUint encode(std::span<const std::uint64_t> residues) const;

  /// Residue extraction (Eq. 3): the per-switch forwarding decision.
  [[nodiscard]] std::vector<std::uint64_t> decode(const BigUint& value) const;

 private:
  std::vector<std::uint64_t> moduli_;
  /// (s_0 · ... · s_{i-1})^-1 mod s_i: Garner's step-i inverse.
  std::vector<std::uint64_t> prefix_inverses_;
  BigUint range_;
  std::size_t bit_length_ = 0;
};

/// ceil(log2(x)); 0 for x <= 1.
[[nodiscard]] std::size_t ceil_log2(const BigUint& x);

/// Paper Eq. 9 applied to a switch-ID set: bits required by the route ID.
[[nodiscard]] std::size_t route_id_bit_length(
    std::span<const std::uint64_t> switch_ids);

}  // namespace kar::rns
