// Arbitrary-precision unsigned integers for KAR route identifiers.
//
// A KAR route ID lies in [0, M) where M is the product of the switch IDs in
// the route (paper Eq. 1 and Eq. 9). For long routes with full protection M
// easily exceeds 64 bits (e.g. ten 7-bit switch IDs ≈ 2^66), so the encoder
// works over this small arbitrary-precision type rather than a fixed-width
// integer. Only what the CRT encoder and header packing need is implemented:
// +, -, *, divmod, mod-by-small, comparisons, shifts, bit length, and
// decimal/hex conversion. Representation: little-endian 32-bit limbs,
// normalized (no high zero limbs; zero has no limbs).
//
// Storage: up to kInlineLimbs limbs (128 bits) live inside the object, so
// every paper route (<= 59 bits) and nearly every generated mesh route is
// copied, moved and reduced without touching the heap. Wider values spill
// to a heap buffer that copy-assignment reuses when it is large enough.
// The object is no larger than a std::vector of limbs.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

namespace kar::rns {

/// Unsigned arbitrary-precision integer.
class BigUint {
 public:
  /// Zero.
  BigUint() noexcept : inline_{} {}
  BigUint(const BigUint& other);
  BigUint(BigUint&& other) noexcept;
  BigUint& operator=(const BigUint& other);
  BigUint& operator=(BigUint&& other) noexcept;
  ~BigUint() { release(); }

  /// From a native unsigned value.
  BigUint(std::uint64_t value);  // NOLINT(google-explicit-constructor): numeric literal ergonomics

  /// Parses a decimal string (optionally prefixed "0x" for hex).
  /// Throws std::invalid_argument on malformed input.
  static BigUint from_string(std::string_view text);

  /// True iff the value is zero.
  [[nodiscard]] bool is_zero() const noexcept { return size_ == 0; }

  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const noexcept;

  /// True iff the value fits in 64 bits.
  [[nodiscard]] bool fits_u64() const noexcept { return size_ <= 2; }

  /// True iff the value fits in the limbs held inside the object (128
  /// bits), so copying it allocates nothing.
  [[nodiscard]] bool fits_inline() const noexcept {
    return size_ <= kInlineLimbs;
  }

  /// Converts to uint64_t; throws std::overflow_error if it does not fit.
  [[nodiscard]] std::uint64_t to_u64() const;

  /// Appends the decimal representation to `out`, allocating nothing
  /// beyond the digits' room in `out` for values of up to 16 limbs.
  void append_decimal(std::string& out) const;

  /// Decimal representation.
  [[nodiscard]] std::string to_string() const;

  /// Lower-case hexadecimal representation without prefix.
  [[nodiscard]] std::string to_hex() const;

  // -- arithmetic ------------------------------------------------------------
  BigUint& operator+=(const BigUint& rhs);
  BigUint& operator-=(const BigUint& rhs);  ///< Throws std::underflow_error if rhs > *this.
  BigUint& operator*=(const BigUint& rhs);
  /// *this = *this * factor + addend, in place (no temporary).
  BigUint& mul_add(std::uint64_t factor, std::uint64_t addend);
  /// *this += x * factor, in place (no temporary). `x` must not alias
  /// *this.
  BigUint& add_mul(const BigUint& x, std::uint64_t factor);
  BigUint& operator<<=(std::size_t bits);
  BigUint& operator>>=(std::size_t bits);

  friend BigUint operator+(BigUint lhs, const BigUint& rhs) { return lhs += rhs; }
  friend BigUint operator-(BigUint lhs, const BigUint& rhs) { return lhs -= rhs; }
  friend BigUint operator*(const BigUint& lhs, const BigUint& rhs);
  friend BigUint operator<<(BigUint lhs, std::size_t bits) { return lhs <<= bits; }
  friend BigUint operator>>(BigUint lhs, std::size_t bits) { return lhs >>= bits; }

  /// Quotient and remainder in one pass (Knuth Algorithm D on 32-bit limbs
  /// for multi-limb divisors). Throws std::domain_error on /0.
  struct DivMod;  // { BigUint quotient; BigUint remainder; } — defined below.
  [[nodiscard]] DivMod divmod(const BigUint& divisor) const;

  friend BigUint operator/(const BigUint& lhs, const BigUint& rhs);
  friend BigUint operator%(const BigUint& lhs, const BigUint& rhs);

  /// Fast remainder by a native divisor (the forwarding operation
  /// `R mod switch_id`, paper Eq. 3). Throws std::domain_error on /0.
  [[nodiscard]] std::uint64_t mod_u64(std::uint64_t divisor) const;

  // -- comparisons -----------------------------------------------------------
  friend bool operator==(const BigUint& lhs, const BigUint& rhs) noexcept;
  friend std::strong_ordering operator<=>(const BigUint& lhs,
                                          const BigUint& rhs) noexcept;

  friend std::ostream& operator<<(std::ostream& os, const BigUint& value);

  /// Read-only view of the limbs, least significant first (for tests,
  /// reductions and header packing).
  [[nodiscard]] std::span<const std::uint32_t> limbs() const noexcept {
    return {data(), size_};
  }

 private:
  /// Limbs stored inside the object before the value spills to the heap.
  static constexpr std::uint32_t kInlineLimbs = 4;

  [[nodiscard]] bool on_heap() const noexcept {
    return capacity_ > kInlineLimbs;
  }
  [[nodiscard]] std::uint32_t* data() noexcept {
    return on_heap() ? heap_ : inline_;
  }
  [[nodiscard]] const std::uint32_t* data() const noexcept {
    return on_heap() ? heap_ : inline_;
  }
  /// Sets the limb count to `n`; new high limbs are zero. Grows the buffer
  /// (keeping the low limbs) when `n` exceeds the capacity.
  void resize(std::size_t n);
  void push_back(std::uint32_t limb);
  /// Frees a heap buffer and leaves an empty inline value.
  void release() noexcept;
  void normalize() noexcept;

  std::uint32_t size_ = 0;                 ///< Significant limbs.
  std::uint32_t capacity_ = kInlineLimbs;  ///< > kInlineLimbs iff on the heap.
  union {
    std::uint32_t inline_[kInlineLimbs];  // little-endian base 2^32
    std::uint32_t* heap_;
  };
};

struct BigUint::DivMod {
  BigUint quotient;
  BigUint remainder;
};

inline BigUint operator/(const BigUint& lhs, const BigUint& rhs) {
  return lhs.divmod(rhs).quotient;
}
inline BigUint operator%(const BigUint& lhs, const BigUint& rhs) {
  return lhs.divmod(rhs).remainder;
}

}  // namespace kar::rns
