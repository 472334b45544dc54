#include "support/divmod_reference.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace kar::testsupport {

rns::BigUint::DivMod divmod_binary(const rns::BigUint& dividend,
                                   const rns::BigUint& divisor) {
  if (divisor.is_zero()) throw std::domain_error("BigUint: division by zero");
  const auto limbs = dividend.limbs();
  std::vector<std::uint32_t> quotient_limbs(limbs.size());
  rns::BigUint remainder;
  for (std::size_t bit = dividend.bit_length(); bit-- > 0;) {
    remainder <<= 1;
    if ((limbs[bit / 32] >> (bit % 32)) & 1U) remainder += rns::BigUint(1);
    if (remainder >= divisor) {
      remainder -= divisor;
      quotient_limbs[bit / 32] |= 1U << (bit % 32);
    }
  }
  rns::BigUint quotient;
  for (std::size_t i = quotient_limbs.size(); i-- > 0;) {
    quotient <<= 32;
    quotient += rns::BigUint(quotient_limbs[i]);
  }
  return {std::move(quotient), std::move(remainder)};
}

}  // namespace kar::testsupport
