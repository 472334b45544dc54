#include "rns/biguint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/divmod_reference.hpp"
#include "support/testsupport.hpp"

namespace kar::rns {
namespace {

static_assert(sizeof(BigUint) <= sizeof(std::vector<std::uint32_t>),
              "BigUint must stay no larger than a limb vector");

TEST(BigUint, DefaultIsZero) {
  const BigUint zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_string(), "0");
  EXPECT_EQ(zero.to_u64(), 0u);
}

TEST(BigUint, ConstructsFromU64) {
  EXPECT_EQ(BigUint(44).to_u64(), 44u);
  EXPECT_EQ(BigUint(0).to_u64(), 0u);
  const std::uint64_t big = 0xFFFFFFFFFFFFFFFFULL;
  EXPECT_EQ(BigUint(big).to_u64(), big);
}

TEST(BigUint, BitLengthMatchesValues) {
  EXPECT_EQ(BigUint(1).bit_length(), 1u);
  EXPECT_EQ(BigUint(2).bit_length(), 2u);
  EXPECT_EQ(BigUint(3).bit_length(), 2u);
  EXPECT_EQ(BigUint(255).bit_length(), 8u);
  EXPECT_EQ(BigUint(256).bit_length(), 9u);
  EXPECT_EQ(BigUint(26389).bit_length(), 15u);  // paper Table 1 unprotected
  EXPECT_EQ((BigUint(1) << 100).bit_length(), 101u);
}

TEST(BigUint, AdditionCarriesAcrossLimbs) {
  BigUint a(0xFFFFFFFFULL);
  a += BigUint(1);
  EXPECT_EQ(a.to_u64(), 0x100000000ULL);
  BigUint b(0xFFFFFFFFFFFFFFFFULL);
  b += BigUint(1);
  EXPECT_EQ(b.to_string(), "18446744073709551616");
  EXPECT_FALSE(b.fits_u64());
}

TEST(BigUint, SubtractionBorrows) {
  BigUint a(0x100000000ULL);
  a -= BigUint(1);
  EXPECT_EQ(a.to_u64(), 0xFFFFFFFFULL);
  EXPECT_EQ((BigUint(44) - BigUint(44)).to_string(), "0");
}

TEST(BigUint, SubtractionUnderflowThrows) {
  BigUint small(3);
  EXPECT_THROW(small -= BigUint(4), std::underflow_error);
}

TEST(BigUint, MultiplicationSmall) {
  EXPECT_EQ((BigUint(4) * BigUint(7) * BigUint(11)).to_u64(), 308u);
  EXPECT_EQ((BigUint(0) * BigUint(12345)).to_string(), "0");
}

TEST(BigUint, MultiplicationLarge) {
  // 2^64 * 2^64 = 2^128
  const BigUint x = BigUint(1) << 64;
  const BigUint sq = x * x;
  EXPECT_EQ(sq.bit_length(), 129u);
  EXPECT_EQ(sq.to_hex(), "100000000000000000000000000000000");
}

TEST(BigUint, DivModSingleLimbDivisor) {
  const BigUint n(1234567890123456789ULL);
  const auto [q, r] = n.divmod(BigUint(1000));
  EXPECT_EQ(q.to_u64(), 1234567890123456ULL);
  EXPECT_EQ(r.to_u64(), 789u);
}

TEST(BigUint, DivModMultiLimbDivisor) {
  const BigUint n = (BigUint(1) << 130) + BigUint(12345);
  const BigUint d = (BigUint(1) << 65) + BigUint(7);
  const auto [q, r] = n.divmod(d);
  EXPECT_EQ(((q * d) + r).to_hex(), n.to_hex());
  EXPECT_LT(r, d);
}

TEST(BigUint, DivisionByZeroThrows) {
  EXPECT_THROW(BigUint(5).divmod(BigUint(0)), std::domain_error);
  EXPECT_THROW(BigUint(5).mod_u64(0), std::domain_error);
}

TEST(BigUint, ModU64MatchesPaperExample) {
  // Paper §2: R=44 forwards via ports 0/2/0 at switches 4/7/11.
  const BigUint r(44);
  EXPECT_EQ(r.mod_u64(4), 0u);
  EXPECT_EQ(r.mod_u64(7), 2u);
  EXPECT_EQ(r.mod_u64(11), 0u);
  // R=660 adds SW5 -> port 0.
  const BigUint r2(660);
  EXPECT_EQ(r2.mod_u64(4), 0u);
  EXPECT_EQ(r2.mod_u64(7), 2u);
  EXPECT_EQ(r2.mod_u64(11), 0u);
  EXPECT_EQ(r2.mod_u64(5), 0u);
}

TEST(BigUint, ModU64MultiLimb) {
  const BigUint n = (BigUint(97) << 200) + BigUint(31);
  // Cross-check against divmod.
  EXPECT_EQ(n.mod_u64(101), n.divmod(BigUint(101)).remainder.to_u64());
  EXPECT_EQ(n.mod_u64(2), n.divmod(BigUint(2)).remainder.to_u64());
}

TEST(BigUint, ShiftsRoundTrip) {
  const BigUint x(0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(((x << 77) >> 77), x);
  EXPECT_EQ((x >> 200).to_string(), "0");
  EXPECT_EQ((BigUint(1) << 32).to_u64(), 0x100000000ULL);
}

TEST(BigUint, ComparisonOrdering) {
  EXPECT_LT(BigUint(3), BigUint(4));
  EXPECT_GT(BigUint(1) << 64, BigUint(0xFFFFFFFFFFFFFFFFULL));
  EXPECT_EQ(BigUint(42), BigUint(42));
  EXPECT_LE(BigUint(0), BigUint(0));
}

TEST(BigUint, DecimalStringRoundTrip) {
  const char* text = "340282366920938463463374607431768211455";  // 2^128-1
  const BigUint x = BigUint::from_string(text);
  EXPECT_EQ(x.to_string(), text);
  EXPECT_EQ((x + BigUint(1)).bit_length(), 129u);
}

/// Reference decimal formatter: repeated divmod by 10^9, each chunk below
/// the most significant zero-padded to nine digits.
std::string reference_decimal(BigUint value) {
  if (value.is_zero()) return "0";
  const BigUint billion(1000000000ULL);
  std::vector<std::uint64_t> chunks;
  while (!value.is_zero()) {
    auto [quotient, remainder] = value.divmod(billion);
    chunks.push_back(remainder.is_zero() ? 0 : remainder.to_u64());
    value = std::move(quotient);
  }
  std::string out = std::to_string(chunks.back());
  for (std::size_t i = chunks.size() - 1; i-- > 0;) {
    const std::string chunk = std::to_string(chunks[i]);
    out.append(9 - chunk.size(), '0');
    out += chunk;
  }
  return out;
}

/// A value of exactly `limbs` limbs, drawn from `rng`.
BigUint random_limbs(common::Rng& rng, std::size_t limbs) {
  BigUint value;
  for (std::size_t i = 0; i < limbs; ++i) {
    value <<= 32;
    const std::uint64_t limb = rng.below(std::uint64_t{1} << 32);
    value += BigUint(i == 0 && limb == 0 ? 1 : limb);
  }
  return value;
}

TEST(BigUint, AppendDecimalMatchesTheDivmodReference) {
  // 0..40 limbs: inline values, the stack copy, and past 16 limbs the
  // heap copy of the limbs.
  auto rng = testsupport::make_rng(0xDEC1A1ULL, "AppendDecimal");
  for (std::size_t limbs = 0; limbs <= 40; ++limbs) {
    for (int draw = 0; draw < 25; ++draw) {
      const BigUint value = random_limbs(rng, limbs);
      ASSERT_EQ(value.limbs().size(), limbs);
      const std::string expected = reference_decimal(value);
      ASSERT_EQ(value.to_string(), expected) << limbs << " limbs";
      std::string appended = "id=";
      value.append_decimal(appended);
      ASSERT_EQ(appended, "id=" + expected) << limbs << " limbs";
    }
  }
}

TEST(BigUint, InPlaceMultiplyAddsMatchTheOperators) {
  // mul_add and add_mul (Garner's CRT steps) against * and +, across the
  // inline/heap boundary, with zero operands and full-width factors.
  auto rng = testsupport::make_rng(0xADD5ULL, "InPlaceMultiplyAdds");
  const std::vector<std::uint64_t> edge_factors = {0, 1, 0xFFFFFFFFULL,
                                                   0x100000000ULL,
                                                   ~std::uint64_t{0}};
  for (std::size_t limbs = 0; limbs <= 9; ++limbs) {
    for (int draw = 0; draw < 30; ++draw) {
      const BigUint a = random_limbs(rng, limbs);
      const BigUint b = random_limbs(rng, rng.below(10));
      const std::uint64_t factor =
          draw < 5 ? edge_factors[draw] : rng.below(~std::uint64_t{0});
      const std::uint64_t addend =
          draw % 3 == 0 ? 0 : rng.below(~std::uint64_t{0});
      BigUint scaled = a;
      scaled.mul_add(factor, addend);
      ASSERT_EQ(scaled, a * BigUint(factor) + BigUint(addend))
          << a << " * " << factor << " + " << addend;
      BigUint accumulated = a;
      accumulated.add_mul(b, factor);
      ASSERT_EQ(accumulated, a + b * BigUint(factor))
          << a << " + " << b << " * " << factor;
    }
  }
}

TEST(BigUint, AppendDecimalEdgeShapes) {
  // Exact powers of 10^9: every chunk below the leading one is zero.
  const BigUint billion(1000000000ULL);
  BigUint power(1);
  for (std::size_t k = 0; k <= 40; ++k) {
    std::string expected(9 * k + 1, '0');
    expected.front() = '1';
    EXPECT_EQ(power.to_string(), expected) << "10^" << 9 * k;
    power *= billion;
  }
  EXPECT_EQ(BigUint(1000000000000000007ULL).to_string(), "1000000000000000007");
  EXPECT_EQ((billion * billion * billion).to_string(),
            "1000000000000000000000000000");
  // 2^k - 1 and 2^k at limb boundaries, up to past the 16-limb stack copy.
  for (const std::size_t k : {32u, 64u, 96u, 128u, 160u, 512u, 544u, 1280u}) {
    const BigUint two_k = BigUint(1) << k;
    const BigUint below = two_k - BigUint(1);
    EXPECT_EQ(below.to_string(), reference_decimal(below)) << "2^" << k << "-1";
    EXPECT_EQ(two_k.to_string(), reference_decimal(two_k)) << "2^" << k;
  }
  EXPECT_EQ((BigUint(1) << 128).to_string(),
            "340282366920938463463374607431768211456");
  // Appending keeps what the string already holds.
  std::string out = "route=";
  BigUint(0).append_decimal(out);
  BigUint(123).append_decimal(out);
  EXPECT_EQ(out, "route=0123");
}

TEST(BigUint, HexStringParses) {
  EXPECT_EQ(BigUint::from_string("0xff").to_u64(), 255u);
  EXPECT_EQ(BigUint::from_string("0xDEADBEEF").to_u64(), 0xDEADBEEFULL);
}

TEST(BigUint, MalformedStringsThrow) {
  EXPECT_THROW(BigUint::from_string(""), std::invalid_argument);
  EXPECT_THROW(BigUint::from_string("12a3"), std::invalid_argument);
  EXPECT_THROW(BigUint::from_string("0xZZ"), std::invalid_argument);
}

TEST(BigUint, HexPrefixWithNoDigitsThrowsDedicatedMessage) {
  // Regression: a bare "0x"/"0X" used to fall through to the decimal loop
  // and report "bad decimal digit" for 'x' — wrong base, wrong diagnosis.
  for (const char* text : {"0x", "0X"}) {
    try {
      (void)BigUint::from_string(text);
      FAIL() << '"' << text << "\" must not parse";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("hex prefix with no digits"),
                std::string::npos)
          << "message was: " << error.what();
    }
  }
}

TEST(BigUint, UppercaseHexPrefixParses) {
  EXPECT_EQ(BigUint::from_string("0Xff").to_u64(), 255u);
}

TEST(BigUint, HexStringRoundTrip) {
  const BigUint x = (BigUint(0xDEADBEEFCAFEBABEULL) << 70) + BigUint(12345);
  EXPECT_EQ(BigUint::from_string("0x" + x.to_hex()), x);
}

TEST(BigUint, DivmodBinaryAgreesOnKnuthEdgeShapes) {
  // Operand shapes that exercise Algorithm D's corner cases: the qhat
  // correction loop (high divisor limb just below 2^32) and the rare
  // add-back step (dividend prefixes equal to the divisor).
  const BigUint top_limb =
      (BigUint(0xFFFFFFFFULL) << 64) + (BigUint(0xFFFFFFFEULL) << 32) +
      BigUint(0x12345678ULL);
  const BigUint d = (BigUint(0x80000000ULL) << 32) + BigUint(1);
  for (const BigUint& n :
       {top_limb, top_limb * d, top_limb * d + BigUint(1),
        (BigUint(1) << 192) - BigUint(1), d, d - BigUint(1)}) {
    const auto fast = n.divmod(d);
    const auto reference = testsupport::divmod_binary(n, d);
    EXPECT_EQ(fast.quotient, reference.quotient) << n;
    EXPECT_EQ(fast.remainder, reference.remainder) << n;
    EXPECT_EQ(fast.quotient * d + fast.remainder, n);
  }
}

TEST(BigUint, ToU64OverflowThrows) {
  EXPECT_THROW(((BigUint(1) << 65)).to_u64(), std::overflow_error);
}

TEST(BigUint, LeadingZeroNormalization) {
  // (x + y) - y must compare equal to x even across limb boundaries.
  const BigUint x(7);
  const BigUint y = BigUint(1) << 96;
  EXPECT_EQ((x + y) - y, x);
}

// -- inline / heap storage boundary (kInlineLimbs = 4 limbs = 128 bits) ----

/// 2^bits - 1: `bits` one bits (zero for bits == 0).
BigUint ones(std::size_t bits) { return (BigUint(1) << bits) - BigUint(1); }

const std::size_t kBoundaryBits[] = {0, 32, 64, 96, 128, 129, 200, 257};

TEST(BigUint, CopyAndMoveAcrossTheInlineHeapBoundary) {
  for (const std::size_t bits : kBoundaryBits) {
    const BigUint value = ones(bits);
    ASSERT_EQ(value.bit_length(), bits);
    BigUint copy(value);
    EXPECT_EQ(copy, value) << bits;
    BigUint moved(std::move(copy));
    EXPECT_EQ(moved, value) << bits;
    copy = value;  // a moved-from value is reusable
    EXPECT_EQ(copy, value) << bits;
    for (const std::size_t other_bits : kBoundaryBits) {
      // Assignment into every storage shape, both ways.
      BigUint target = ones(other_bits);
      target = value;
      EXPECT_EQ(target, value) << other_bits << " <- " << bits;
      BigUint target_moved = ones(other_bits);
      BigUint source = value;
      target_moved = std::move(source);
      EXPECT_EQ(target_moved, value) << other_bits << " <- " << bits;
      EXPECT_EQ(target_moved.limbs().size(), (bits + 31) / 32);
    }
    BigUint self = value;
    const BigUint& alias = self;
    self = alias;
    EXPECT_EQ(self, value) << bits;
  }
}

TEST(BigUint, ArithmeticCrossesTheInlineHeapBoundary) {
  BigUint value = ones(128);  // the widest inline value
  value += BigUint(1);        // grows onto the heap
  EXPECT_EQ(value.to_hex(), "1" + std::string(32, '0'));
  value -= BigUint(1);  // shrinks back to 128 bits, still heap-backed
  EXPECT_EQ(value, ones(128));
  EXPECT_EQ(value.bit_length(), 128u);
  value += value;  // aliased operand
  EXPECT_EQ(value, ones(129) - BigUint(1));
  EXPECT_EQ(ones(64) * ones(64), ones(128) - (ones(65) - BigUint(1)));
  EXPECT_EQ((ones(100) * ones(100)).bit_length(), 200u);
}

TEST(BigUint, ShiftsAcrossTheInlineHeapBoundary) {
  for (const std::size_t bits : kBoundaryBits) {
    const BigUint value = ones(bits) - (bits > 8 ? BigUint(0x5A) : BigUint(0));
    for (const std::size_t shift : {1U, 4U, 31U, 32U, 33U, 64U, 100U, 128U}) {
      const BigUint shifted = value << shift;
      EXPECT_EQ(shifted >> shift, value) << bits << " << " << shift;
      if (!value.is_zero()) {
        EXPECT_EQ(shifted.bit_length(), bits + shift);
      }
      if (shift % 4 == 0 && !value.is_zero()) {
        // Independent oracle: a 4k-bit shift appends k hex zeros.
        EXPECT_EQ(shifted.to_hex(), value.to_hex() + std::string(shift / 4, '0'));
      }
    }
    EXPECT_TRUE((value >> (bits + 1)).is_zero());
  }
}

TEST(BigUint, DivisionAndReductionAcrossTheInlineHeapBoundary) {
  const BigUint divisors[] = {BigUint(7), BigUint(0xFFFFFFFBULL),
                              ones(33), ones(64), ones(96) - BigUint(12),
                              ones(128), ones(129), ones(160) - ones(40)};
  for (const std::size_t bits : kBoundaryBits) {
    // A dense, irregular dividend of exactly `bits` bits.
    const BigUint dividend =
        bits == 0 ? BigUint(0) : ones(bits) - (ones(bits / 2) << (bits / 4));
    for (const BigUint& divisor : divisors) {
      const auto [q, r] = dividend.divmod(divisor);
      EXPECT_TRUE(r < divisor);
      EXPECT_EQ(q * divisor + r, dividend) << bits;
      const auto reference = testsupport::divmod_binary(dividend, divisor);
      EXPECT_EQ(q, reference.quotient) << bits;
      EXPECT_EQ(r, reference.remainder) << bits;
    }
    for (const std::uint64_t m : {2ULL, 61ULL, 0xFFFFFFFFULL, 0x1FFFFFFFFULL,
                                  0xFFFFFFFFFFFFFFC5ULL}) {
      EXPECT_EQ(BigUint(dividend.mod_u64(m)), dividend.divmod(BigUint(m)).remainder)
          << bits << " mod " << m;
    }
  }
}

}  // namespace
}  // namespace kar::rns
