// Bit-at-a-time long division: the reference BigUint::divmod is checked
// against.
//
// It is written only against BigUint's public interface (limbs(),
// bit_length(), shifts, +=, -=, comparisons), so it shares no code and no
// failure modes with the word-level Knuth Algorithm D inside BigUint.
// Test infrastructure, but bench/micro_dataplane times it as the "before"
// side of its divmod row, so it builds without gtest and without the
// tests/ tree (target kar_rns_reference).
#pragma once

#include "rns/biguint.hpp"

namespace kar::testsupport {

/// `dividend` divided by `divisor`, one quotient bit per step. Throws
/// std::domain_error on /0.
[[nodiscard]] rns::BigUint::DivMod divmod_binary(const rns::BigUint& dividend,
                                                 const rns::BigUint& divisor);

}  // namespace kar::testsupport
