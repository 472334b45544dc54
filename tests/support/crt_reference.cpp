#include "support/crt_reference.hpp"

#include <stdexcept>

#include "rns/crt.hpp"
#include "rns/modular.hpp"

namespace kar::testsupport {

Eq4Encoding crt_eq4(std::span<const std::uint64_t> moduli,
                    std::span<const std::uint64_t> residues) {
  rns::BigUint range(1);
  for (const std::uint64_t m : moduli) range *= rns::BigUint(m);
  rns::BigUint sum;
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    // M_i = M / s_i (Eq. 6); L_i = (M_i)^-1 mod s_i (Eq. 7).
    const rns::BigUint big_mi = range / rns::BigUint(moduli[i]);
    const auto li = rns::mod_inverse(big_mi.mod_u64(moduli[i]), moduli[i]);
    if (!li) throw std::invalid_argument("crt_eq4: moduli are not coprime");
    const rns::BigUint coefficient = (big_mi * rns::BigUint(*li)) % range;
    sum += coefficient * rns::BigUint(residues[i]);
  }
  return {sum % range, rns::ceil_log2(range - rns::BigUint(1))};
}

}  // namespace kar::testsupport
