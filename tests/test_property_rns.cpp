// Randomized property tests for the RNS/CRT layer (paper §2.2):
//   * CRT round-trip — R mod s_i == residue_i for random coprime bases;
//   * Garner vs Eq. 4 — RnsBasis equals testsupport::crt_eq4 on bases of
//     1-40 moduli, past 512 bits;
//   * bit length    — RnsBasis::bit_length matches Eq. 9 and ceil_log2(M-1);
//   * BigUint divmod against an independent schoolbook shift-subtract
//     reference on random multi-limb operands.
// All randomness flows through testsupport::make_rng so any failure prints
// a replayable seed and --seed=N / KAR_SEED=N re-runs it exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rns/biguint.hpp"
#include "rns/crt.hpp"
#include "rns/modular.hpp"
#include "rns/prepared_mod.hpp"
#include "support/crt_reference.hpp"
#include "support/divmod_reference.hpp"
#include "support/testsupport.hpp"

namespace kar::rns {
namespace {

/// Random pairwise-coprime moduli via the same generator the controller's
/// ID assignment uses, started from a random floor so bases differ per draw.
std::vector<std::uint64_t> random_coprime_moduli(common::Rng& rng,
                                                 std::size_t count) {
  const std::uint64_t minimum = 2 + rng.below(500);
  return next_coprime_ids(count, minimum, {});
}

/// Random BigUint with roughly `bits` significant bits.
BigUint random_biguint(common::Rng& rng, std::size_t bits) {
  BigUint value;
  for (std::size_t produced = 0; produced < bits; produced += 32) {
    value <<= 32;
    value += BigUint(rng.below(std::uint64_t{1} << 32));
  }
  return value;
}

class RnsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RnsProperty, CrtRoundTripRecoversEveryResidue) {
  auto rng = testsupport::make_rng(GetParam(), "CrtRoundTrip");
  for (int iteration = 0; iteration < 40; ++iteration) {
    const std::size_t count = 2 + rng.below(10);
    const auto moduli = random_coprime_moduli(rng, count);
    const RnsBasis basis(moduli);

    std::vector<std::uint64_t> residues;
    residues.reserve(count);
    for (const std::uint64_t modulus : moduli) {
      residues.push_back(rng.below(modulus));
    }

    const BigUint route_id = basis.encode(residues);
    EXPECT_LT(route_id, basis.range());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(route_id.mod_u64(moduli[i]), residues[i])
          << "modulus " << moduli[i] << " in iteration " << iteration;
    }
    EXPECT_EQ(basis.decode(route_id), residues);

    // A one-shot basis over the same congruences in another order must
    // agree (Eq. 4 is a commutative sum).
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<std::uint64_t> shuffled_moduli;
    std::vector<std::uint64_t> shuffled_residues;
    for (const std::size_t i : order) {
      shuffled_moduli.push_back(moduli[i]);
      shuffled_residues.push_back(residues[i]);
    }
    EXPECT_EQ(RnsBasis(shuffled_moduli).encode(shuffled_residues), route_id);
  }
}

/// `count` distinct primes drawn upward from random starts below 2^61, so
/// moduli, prefix residues and Garner's products take the 128-bit paths.
std::vector<std::uint64_t> random_wide_primes(common::Rng& rng,
                                              std::size_t count) {
  std::vector<std::uint64_t> primes;
  while (primes.size() < count) {
    std::uint64_t candidate = 2 + rng.below(std::uint64_t{1} << (2 + rng.below(60)));
    while (!is_prime_u64(candidate)) ++candidate;
    if (std::find(primes.begin(), primes.end(), candidate) == primes.end()) {
      primes.push_back(candidate);
    }
  }
  return primes;
}

TEST_P(RnsProperty, GarnerMatchesEq4Reference) {
  // RnsBasis runs Garner's mixed-radix CRT; testsupport::crt_eq4 is the
  // paper's Eq. 4 with BigUint long division. The CRT solution is unique,
  // so both must give the same route ID and the same Eq. 9 bit length.
  auto rng = testsupport::make_rng(GetParam() ^ 0x6A7ULL, "GarnerEq4");
  std::size_t widest = 0;
  for (int iteration = 0; iteration < 60; ++iteration) {
    const std::size_t count = 1 + rng.below(40);
    std::vector<std::uint64_t> moduli =
        iteration % 2 == 0
            ? next_coprime_ids(count, 2 + rng.below(std::uint64_t{1} << 31), {})
            : random_wide_primes(rng, count);
    rng.shuffle(moduli);
    std::vector<std::uint64_t> residues;
    residues.reserve(count);
    for (const std::uint64_t modulus : moduli) {
      residues.push_back(rng.below(modulus));
    }

    const RnsBasis basis(moduli);
    const testsupport::Eq4Encoding reference =
        testsupport::crt_eq4(moduli, residues);
    EXPECT_EQ(basis.encode(residues), reference.route_id)
        << count << " moduli in iteration " << iteration;
    EXPECT_EQ(basis.bit_length(), reference.bit_length)
        << count << " moduli in iteration " << iteration;
    widest = std::max(widest, basis.bit_length());
  }
  EXPECT_GT(widest, 512u);
}

TEST_P(RnsProperty, BitLengthMatchesEq9) {
  auto rng = testsupport::make_rng(GetParam() ^ 0xE99ULL, "BitLengthEq9");
  for (int iteration = 0; iteration < 60; ++iteration) {
    const std::size_t count = 1 + rng.below(12);
    const auto moduli = random_coprime_moduli(rng, count);
    const RnsBasis basis(moduli);

    EXPECT_EQ(basis.bit_length(), route_id_bit_length(moduli));

    // Eq. 9 says the header needs ceil(log2(M - 1)) bits: every encodable
    // route ID (anything below M) must fit, and the bound must be tight.
    const BigUint largest = basis.range() - BigUint(1);
    EXPECT_LE(largest.bit_length(), basis.bit_length());
    EXPECT_EQ(ceil_log2(largest), basis.bit_length());
  }
}

/// Schoolbook shift-subtract long division: the independent reference
/// implementation divmod() is checked against. O(bits^2) but obviously
/// correct — it only uses comparison, shift and subtraction.
BigUint::DivMod schoolbook_divmod(const BigUint& dividend,
                                  const BigUint& divisor) {
  BigUint quotient;
  BigUint remainder = dividend;
  if (divisor > dividend) return {quotient, remainder};
  std::size_t shift = dividend.bit_length() - divisor.bit_length();
  BigUint shifted = divisor << shift;
  for (;; --shift) {
    quotient <<= 1;
    if (shifted <= remainder) {
      remainder -= shifted;
      quotient += BigUint(1);
    }
    if (shift == 0) break;
    shifted >>= 1;
  }
  return {quotient, remainder};
}

TEST_P(RnsProperty, DivModMatchesSchoolbookReference) {
  auto rng = testsupport::make_rng(GetParam() ^ 0xD17ULL, "DivModReference");
  for (int iteration = 0; iteration < 30; ++iteration) {
    const BigUint dividend = random_biguint(rng, 32 + rng.below(200));
    BigUint divisor = random_biguint(rng, 1 + rng.below(150));
    if (divisor.is_zero()) divisor = BigUint(1 + rng.below(1000));

    const auto fast = dividend.divmod(divisor);
    const auto slow = schoolbook_divmod(dividend, divisor);
    EXPECT_EQ(fast.quotient, slow.quotient);
    EXPECT_EQ(fast.remainder, slow.remainder);

    // Reconstruction identity and remainder bound close the loop.
    EXPECT_EQ(fast.quotient * divisor + fast.remainder, dividend);
    EXPECT_LT(fast.remainder, divisor);

    // mod_u64 must agree with full divmod on native-width divisors.
    const std::uint64_t small = 1 + rng.below(0xFFFFFFFFULL);
    EXPECT_EQ(dividend.mod_u64(small),
              (dividend % BigUint(small)).to_u64());
  }
}

TEST_P(RnsProperty, DivModMatchesRetiredBinaryDivider) {
  // The bit-at-a-time divider the word-level Knuth D implementation
  // replaced stays in the tree as testsupport::divmod_binary — an
  // always-on differential oracle with completely different failure modes.
  auto rng = testsupport::make_rng(GetParam() ^ 0xB1DULL, "DivModBinary");
  for (int iteration = 0; iteration < 30; ++iteration) {
    const BigUint dividend = random_biguint(rng, 32 + rng.below(300));
    BigUint divisor = random_biguint(rng, 1 + rng.below(250));
    if (divisor.is_zero()) divisor = BigUint(1 + rng.below(1000));

    const auto fast = dividend.divmod(divisor);
    const auto reference = testsupport::divmod_binary(dividend, divisor);
    EXPECT_EQ(fast.quotient, reference.quotient)
        << dividend << " / " << divisor;
    EXPECT_EQ(fast.remainder, reference.remainder)
        << dividend << " % " << divisor;
  }
}

TEST_P(RnsProperty, StringRoundTripsPreserveValue) {
  auto rng = testsupport::make_rng(GetParam() ^ 0x57FULL, "StringRoundTrip");
  for (int iteration = 0; iteration < 30; ++iteration) {
    const BigUint value = random_biguint(rng, 1 + rng.below(260));
    EXPECT_EQ(BigUint::from_string(value.to_string()), value);
    EXPECT_EQ(BigUint::from_string("0x" + value.to_hex()), value);
  }
}

TEST_P(RnsProperty, PreparedModMatchesModU64) {
  auto rng = testsupport::make_rng(GetParam() ^ 0x9DULL, "PreparedMod");
  for (int iteration = 0; iteration < 40; ++iteration) {
    const BigUint value = random_biguint(rng, 1 + rng.below(300));
    // Half the draws stay in the Barrett range (< 2^32), half exercise the
    // wide-divisor fallback path.
    const std::uint64_t divisor =
        iteration % 2 == 0 ? 1 + rng.below(0xFFFFFFFFULL)
                           : (std::uint64_t{1} << 32) + rng.below(1u << 30);
    const PreparedMod prepared(divisor);
    EXPECT_EQ(prepared.reduce(value), value.mod_u64(divisor))
        << value << " mod " << divisor;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RnsProperty,
                         ::testing::Values(1u, 7u, 42u, 2026u, 0xBEEFu));

}  // namespace
}  // namespace kar::rns
