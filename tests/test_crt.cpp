#include "rns/crt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/crt_reference.hpp"

namespace kar::rns {
namespace {

TEST(RnsBasis, PaperUnprotectedExample) {
  // §2.2: switches {4, 7, 11}, ports {0, 2, 0} -> R = 44, M = 308.
  const RnsBasis basis({4, 7, 11});
  EXPECT_EQ(basis.range().to_u64(), 308u);
  const std::vector<std::uint64_t> ports = {0, 2, 0};
  EXPECT_EQ(basis.encode(ports).to_u64(), 44u);
}

TEST(RnsBasis, PaperProtectedExample) {
  // §2.2: switches {4, 7, 11, 5}, ports {0, 2, 0, 0} -> R = 660, M = 1540.
  const RnsBasis basis({4, 7, 11, 5});
  EXPECT_EQ(basis.range().to_u64(), 1540u);
  const std::vector<std::uint64_t> ports = {0, 2, 0, 0};
  EXPECT_EQ(basis.encode(ports).to_u64(), 660u);
}

TEST(RnsBasis, DecodeRecoversResidues) {
  const RnsBasis basis({4, 7, 11, 5});
  EXPECT_EQ(basis.decode(BigUint(660)),
            (std::vector<std::uint64_t>{0, 2, 0, 0}));
  EXPECT_EQ(basis.decode(BigUint(44)), (std::vector<std::uint64_t>{0, 2, 0, 4}));
}

TEST(RnsBasis, EncodeDecodeRoundTripExhaustiveSmallBasis) {
  const RnsBasis basis({3, 5, 7});
  for (std::uint64_t r = 0; r < 105; ++r) {
    const auto residues = basis.decode(BigUint(r));
    EXPECT_EQ(basis.encode(residues).to_u64(), r);
  }
}

TEST(RnsBasis, SwitchOrderIsIrrelevant) {
  // §2.2: "the switch order is irrelevant to derive the route ID".
  const RnsBasis a({4, 7, 11, 5});
  const RnsBasis b({5, 11, 7, 4});
  const BigUint ra = a.encode(std::vector<std::uint64_t>{0, 2, 0, 0});
  const BigUint rb = b.encode(std::vector<std::uint64_t>{0, 0, 2, 0});
  EXPECT_EQ(ra, rb);
}

/// The message RnsBasis({moduli}) throws, or "" when it does not throw.
std::string construction_error(std::vector<std::uint64_t> moduli) {
  try {
    (void)RnsBasis(std::move(moduli));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(RnsBasis, RejectsNonCoprimeModuli) {
  EXPECT_EQ(construction_error({4, 6}),
            "RnsBasis: moduli 4 and 6 share factor 2");
  EXPECT_EQ(construction_error({10, 15, 7}),
            "RnsBasis: moduli 10 and 15 share factor 5");
  // The first offending pair in index order, even when a later modulus is
  // the first to collide with its prefix.
  EXPECT_EQ(construction_error({9, 7, 5, 14, 21}),
            "RnsBasis: moduli 9 and 21 share factor 3");
  EXPECT_EQ(construction_error({13, 13}),
            "RnsBasis: moduli 13 and 13 share factor 13");
}

TEST(RnsBasis, RejectsDegenerateModuli) {
  EXPECT_THROW(RnsBasis({}), std::invalid_argument);
  EXPECT_THROW(RnsBasis({1, 5}), std::invalid_argument);
  EXPECT_THROW(RnsBasis({0}), std::invalid_argument);
}

TEST(RnsBasis, RejectsOutOfRangeResidues) {
  const RnsBasis basis({4, 7});
  EXPECT_THROW(basis.encode(std::vector<std::uint64_t>{4, 0}),
               std::invalid_argument);
  EXPECT_THROW(basis.encode(std::vector<std::uint64_t>{0}), std::invalid_argument);
}

TEST(RnsBasis, LargeBasisBeyond64Bits) {
  // Ten primes around 100: M ~ 2^66 — must encode exactly via BigUint.
  const std::vector<std::uint64_t> moduli = {71, 73, 79, 83, 89,
                                             97, 101, 103, 107, 109};
  const RnsBasis basis(moduli);
  EXPECT_GT(basis.range().bit_length(), 64u);
  const std::vector<std::uint64_t> residues = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const BigUint r = basis.encode(residues);
  EXPECT_EQ(basis.decode(r), residues);
  EXPECT_LT(r, basis.range());
}

TEST(CrtEncode, FreeFunctionMatchesBasis) {
  // Congruences {4: 0, 7: 2, 11: 0} -> 44, through the free Eq. 4
  // construction and through RnsBasis.
  const std::vector<std::uint64_t> moduli = {4, 7, 11};
  const std::vector<std::uint64_t> residues = {0, 2, 0};
  const testsupport::Eq4Encoding eq4 = testsupport::crt_eq4(moduli, residues);
  EXPECT_EQ(eq4.route_id.to_u64(), 44u);
  EXPECT_EQ(RnsBasis(moduli).encode(residues), eq4.route_id);
}

TEST(CeilLog2, EdgeCases) {
  EXPECT_EQ(ceil_log2(BigUint(0)), 0u);
  EXPECT_EQ(ceil_log2(BigUint(1)), 0u);
  EXPECT_EQ(ceil_log2(BigUint(2)), 1u);
  EXPECT_EQ(ceil_log2(BigUint(3)), 2u);
  EXPECT_EQ(ceil_log2(BigUint(4)), 2u);
  EXPECT_EQ(ceil_log2(BigUint(5)), 3u);
  EXPECT_EQ(ceil_log2(BigUint(1) << 64), 64u);
  EXPECT_EQ(ceil_log2((BigUint(1) << 64) + BigUint(1)), 65u);
}

TEST(RouteIdBitLength, PaperTable1Values) {
  // Table 1 for the 15-node network: 15 / 28 / 43 bits.
  const std::vector<std::uint64_t> unprotected = {10, 7, 13, 29};
  EXPECT_EQ(route_id_bit_length(unprotected), 15u);
  const std::vector<std::uint64_t> partial = {10, 7, 13, 29, 11, 19, 31};
  EXPECT_EQ(route_id_bit_length(partial), 28u);
  const std::vector<std::uint64_t> full = {10, 7, 13, 29, 11, 19, 31, 17, 37, 43};
  EXPECT_EQ(route_id_bit_length(full), 43u);
}

TEST(RouteIdBitLength, GrowsMonotonicallyWithSwitches) {
  std::vector<std::uint64_t> ids;
  std::size_t prev = 0;
  for (const std::uint64_t id : {5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL}) {
    ids.push_back(id);
    const std::size_t bits = route_id_bit_length(ids);
    EXPECT_GE(bits, prev);
    prev = bits;
  }
}

TEST(RnsBasis, EncodeMatchesEq4Manually) {
  // Cross-check the full Eq. 4 computation on the paper's protected basis.
  const std::vector<std::uint64_t> s = {4, 7, 11, 5};
  const std::vector<std::uint64_t> p = {0, 2, 0, 0};
  const testsupport::Eq4Encoding eq4 = testsupport::crt_eq4(s, p);
  EXPECT_EQ(eq4.route_id.to_u64(), 660u);
  const RnsBasis basis(s);
  EXPECT_EQ(basis.encode(p), eq4.route_id);
  EXPECT_EQ(basis.bit_length(), eq4.bit_length);
}

TEST(RnsBasis, RandomizedRoundTrip) {
  common::Rng rng(12345);
  const std::vector<std::uint64_t> moduli = {7, 11, 13, 17, 19, 23, 29, 31};
  const RnsBasis basis(moduli);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint64_t> residues;
    residues.reserve(moduli.size());
    for (const auto m : moduli) residues.push_back(rng.below(m));
    const BigUint encoded = basis.encode(residues);
    EXPECT_LT(encoded, basis.range());
    EXPECT_EQ(basis.decode(encoded), residues);
  }
}

}  // namespace
}  // namespace kar::rns
