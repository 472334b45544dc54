#include "rns/crt.hpp"

#include <stdexcept>
#include <string>

#include "rns/modular.hpp"

namespace kar::rns {

RnsBasis::RnsBasis(std::vector<std::uint64_t> moduli) : moduli_(std::move(moduli)) {
  if (moduli_.empty()) {
    throw std::invalid_argument("RnsBasis: empty modulus set");
  }
  for (const std::uint64_t m : moduli_) {
    if (m < 2) {
      throw std::invalid_argument("RnsBasis: every modulus must be >= 2, got " +
                                  std::to_string(m));
    }
  }
  // The prefix product s_0 · ... · s_{i-1} is invertible mod s_i exactly
  // when s_i shares no factor with an earlier modulus, so the inverses
  // check pairwise coprimality as they are built.
  prefix_inverses_.reserve(moduli_.size());
  range_ = BigUint(1);
  for (const std::uint64_t m : moduli_) {
    const auto inverse = mod_inverse(range_.mod_u64(m), m);
    if (!inverse) {
      const auto violation = find_coprime_violation(moduli_);
      throw std::invalid_argument(
          "RnsBasis: moduli " + std::to_string(moduli_[violation->first_index]) +
          " and " + std::to_string(moduli_[violation->second_index]) +
          " share factor " + std::to_string(violation->common_factor));
    }
    prefix_inverses_.push_back(*inverse);
    range_.mul_add(m, 0);
  }
  bit_length_ = ceil_log2(range_ - BigUint(1));
}

BigUint RnsBasis::encode(std::span<const std::uint64_t> residues) const {
  if (residues.size() != moduli_.size()) {
    throw std::invalid_argument("RnsBasis::encode: expected " +
                                std::to_string(moduli_.size()) + " residues, got " +
                                std::to_string(residues.size()));
  }
  // Garner: after step i, value is the CRT solution for s_0..s_i, below
  // prefix = s_0 · ... · s_i. Step i adds the multiple of the old prefix
  // that corrects the residue mod s_i.
  BigUint value;
  BigUint prefix(1);
  for (std::size_t i = 0; i < residues.size(); ++i) {
    const std::uint64_t m = moduli_[i];
    const std::uint64_t r = residues[i];
    if (r >= m) {
      throw std::invalid_argument(
          "RnsBasis::encode: residue " + std::to_string(r) +
          " out of range for modulus " + std::to_string(m));
    }
    const std::uint64_t have = value.mod_u64(m);
    const std::uint64_t gap = r >= have ? r - have : r + (m - have);
    value.add_mul(prefix, mul_mod(gap, prefix_inverses_[i], m));
    prefix.mul_add(m, 0);
  }
  return value;
}

std::vector<std::uint64_t> RnsBasis::decode(const BigUint& value) const {
  std::vector<std::uint64_t> out;
  out.reserve(moduli_.size());
  for (const std::uint64_t m : moduli_) out.push_back(value.mod_u64(m));
  return out;
}

std::size_t ceil_log2(const BigUint& x) {
  const std::size_t bits = x.bit_length();
  if (bits <= 1) return 0;  // x is 0 or 1
  // x is a power of two iff exactly one bit is set.
  int set_bits = 0;
  for (const std::uint32_t limb : x.limbs()) {
    set_bits += __builtin_popcount(limb);
    if (set_bits > 1) break;
  }
  return (set_bits == 1) ? bits - 1 : bits;
}

std::size_t route_id_bit_length(std::span<const std::uint64_t> switch_ids) {
  BigUint product(1);
  for (const std::uint64_t id : switch_ids) {
    if (id < 2) throw std::invalid_argument("route_id_bit_length: switch id < 2");
    product *= BigUint(id);
  }
  return ceil_log2(product - BigUint(1));
}

}  // namespace kar::rns
