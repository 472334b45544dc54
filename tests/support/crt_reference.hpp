// The paper's Eq. 4 CRT construction, kept as the reference that
// rns::RnsBasis (Garner's mixed-radix form) is checked against.
//
// R = (Σ p_i · M_i · L_i) mod M with M_i = M / s_i and L_i = M_i^-1 mod s_i
// (Eq. 4-7), built with BigUint long division (`/` and `%`), so it shares
// no arithmetic path with the division-free Garner encoder beyond
// mod_u64 and mod_inverse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rns/biguint.hpp"

namespace kar::testsupport {

struct Eq4Encoding {
  rns::BigUint route_id;
  /// ceil(log2(M - 1)) (Eq. 9).
  std::size_t bit_length = 0;
};

/// Eq. 4 over `moduli` (pairwise coprime, each >= 2) and `residues` (one
/// per modulus, each below it). Throws std::invalid_argument when a modulus
/// has no inverse (a shared factor).
[[nodiscard]] Eq4Encoding crt_eq4(std::span<const std::uint64_t> moduli,
                                  std::span<const std::uint64_t> residues);

}  // namespace kar::testsupport
