#include "rns/biguint.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <memory>
#include <ostream>
#include <stdexcept>

namespace kar::rns {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}  // namespace

BigUint::BigUint(std::uint64_t value) : inline_{} {
  inline_[0] = static_cast<std::uint32_t>(value);
  inline_[1] = static_cast<std::uint32_t>(value >> 32);
  size_ = (value >> 32) != 0 ? 2 : (value != 0 ? 1 : 0);
}

BigUint::BigUint(const BigUint& other) : inline_{} { *this = other; }

BigUint::BigUint(BigUint&& other) noexcept : inline_{} {
  *this = std::move(other);
}

BigUint& BigUint::operator=(const BigUint& other) {
  if (this == &other) return *this;
  if (other.size_ > capacity_) {
    // No limb survives, so allocate fresh rather than grow.
    release();
    heap_ = new std::uint32_t[other.size_];
    capacity_ = other.size_;
  }
  std::memcpy(data(), other.data(), other.size_ * sizeof(std::uint32_t));
  size_ = other.size_;
  return *this;
}

BigUint& BigUint::operator=(BigUint&& other) noexcept {
  if (this == &other) return *this;
  release();
  size_ = other.size_;
  capacity_ = other.capacity_;
  if (other.on_heap()) {
    heap_ = other.heap_;
    other.capacity_ = kInlineLimbs;
    std::fill_n(other.inline_, kInlineLimbs, 0U);
  } else {
    std::memcpy(inline_, other.inline_, sizeof(inline_));
  }
  other.size_ = 0;
  return *this;
}

void BigUint::release() noexcept {
  if (on_heap()) {
    delete[] heap_;
    capacity_ = kInlineLimbs;
    std::fill_n(inline_, kInlineLimbs, 0U);
  }
  size_ = 0;
}

void BigUint::resize(std::size_t n) {
  if (n > capacity_) {
    const auto capacity =
        static_cast<std::uint32_t>(std::max<std::size_t>(n, 2 * capacity_));
    auto* grown = new std::uint32_t[capacity];
    std::memcpy(grown, data(), size_ * sizeof(std::uint32_t));
    if (on_heap()) delete[] heap_;
    heap_ = grown;
    capacity_ = capacity;
  }
  if (n > size_) std::fill(data() + size_, data() + n, 0U);
  size_ = static_cast<std::uint32_t>(n);
}

void BigUint::push_back(std::uint32_t limb) {
  resize(size_ + 1);
  data()[size_ - 1] = limb;
}

void BigUint::normalize() noexcept {
  const std::uint32_t* limbs = data();
  while (size_ > 0 && limbs[size_ - 1] == 0) --size_;
}

BigUint BigUint::from_string(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigUint: empty string");
  BigUint out;
  if (text.size() >= 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    if (text.size() == 2) {
      throw std::invalid_argument("BigUint: hex prefix with no digits");
    }
    for (const char c : text.substr(2)) {
      int digit = 0;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else throw std::invalid_argument("BigUint: bad hex digit");
      out <<= 4;
      out += BigUint(static_cast<std::uint64_t>(digit));
    }
    return out;
  }
  for (const char c : text) {
    if (c < '0' || c > '9') throw std::invalid_argument("BigUint: bad decimal digit");
    out *= BigUint(10);
    out += BigUint(static_cast<std::uint64_t>(c - '0'));
  }
  return out;
}

std::size_t BigUint::bit_length() const noexcept {
  if (size_ == 0) return 0;
  const std::uint32_t top = data()[size_ - 1];
  const std::size_t bits = (size_ - 1) * std::size_t{32};
  return bits + (32 - static_cast<std::size_t>(__builtin_clz(top)));
}

std::uint64_t BigUint::to_u64() const {
  if (!fits_u64()) throw std::overflow_error("BigUint::to_u64: value exceeds 64 bits");
  const std::uint32_t* limbs = data();
  std::uint64_t out = 0;
  if (size_ > 1) out = static_cast<std::uint64_t>(limbs[1]) << 32;
  if (size_ > 0) out |= limbs[0];
  return out;
}

BigUint& BigUint::operator+=(const BigUint& rhs) {
  const std::size_t rn = rhs.size_;
  const std::size_t n = std::max<std::size_t>(size_, rn);
  resize(n);  // never reallocates when rhs aliases *this (n == size_)
  std::uint32_t* limbs = data();
  const std::uint32_t* other = rhs.data();
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry + limbs[i];
    if (i < rn) sum += other[i];
    limbs[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) push_back(static_cast<std::uint32_t>(carry));
  return *this;
}

BigUint& BigUint::operator-=(const BigUint& rhs) {
  if (*this < rhs) throw std::underflow_error("BigUint: negative subtraction result");
  std::uint32_t* limbs = data();
  const std::uint32_t* other = rhs.data();
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs[i]) - borrow -
                        (i < rhs.size_ ? other[i] : 0);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    limbs[i] = static_cast<std::uint32_t>(diff);
  }
  normalize();
  return *this;
}

BigUint operator*(const BigUint& lhs, const BigUint& rhs) {
  if (lhs.is_zero() || rhs.is_zero()) return {};
  BigUint product;
  product.resize(lhs.size_ + rhs.size_);
  std::uint32_t* out = product.data();
  const std::uint32_t* a_limbs = lhs.data();
  const std::uint32_t* b_limbs = rhs.data();
  for (std::size_t i = 0; i < lhs.size_; ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = a_limbs[i];
    for (std::size_t j = 0; j < rhs.size_; ++j) {
      const std::uint64_t cur = out[i + j] + a * b_limbs[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + rhs.size_;
    while (carry) {
      const std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  product.normalize();
  return product;
}

BigUint& BigUint::operator*=(const BigUint& rhs) {
  *this = *this * rhs;
  return *this;
}

BigUint& BigUint::mul_add(std::uint64_t factor, std::uint64_t addend) {
  std::uint32_t* limbs = data();
  __uint128_t carry = addend;
  for (std::size_t i = 0; i < size_; ++i) {
    carry += static_cast<__uint128_t>(limbs[i]) * factor;
    limbs[i] = static_cast<std::uint32_t>(carry);
    carry >>= 32;
  }
  while (carry != 0) {
    push_back(static_cast<std::uint32_t>(carry));
    carry >>= 32;
  }
  normalize();  // factor 0 leaves high zero limbs
  return *this;
}

BigUint& BigUint::add_mul(const BigUint& x, std::uint64_t factor) {
  if (x.size_ > size_) resize(x.size_);
  std::uint32_t* limbs = data();
  const std::uint32_t* other = x.data();
  __uint128_t carry = 0;
  std::size_t i = 0;
  for (; i < x.size_; ++i) {
    carry += limbs[i] + static_cast<__uint128_t>(other[i]) * factor;
    limbs[i] = static_cast<std::uint32_t>(carry);
    carry >>= 32;
  }
  for (; carry != 0 && i < size_; ++i) {
    carry += limbs[i];
    limbs[i] = static_cast<std::uint32_t>(carry);
    carry >>= 32;
  }
  while (carry != 0) {
    push_back(static_cast<std::uint32_t>(carry));
    carry >>= 32;
  }
  normalize();  // factor 0 on a longer x leaves high zero limbs
  return *this;
}

BigUint& BigUint::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  const std::size_t old_size = size_;
  resize(old_size + limb_shift + (bit_shift != 0 ? 1 : 0));
  std::uint32_t* limbs = data();
  if (limb_shift != 0) {
    std::memmove(limbs + limb_shift, limbs, old_size * sizeof(std::uint32_t));
    std::fill_n(limbs, limb_shift, 0U);
  }
  if (bit_shift != 0) {
    std::uint32_t carry = 0;
    for (std::size_t i = limb_shift; i < limb_shift + old_size; ++i) {
      const std::uint64_t cur = (static_cast<std::uint64_t>(limbs[i]) << bit_shift) | carry;
      limbs[i] = static_cast<std::uint32_t>(cur);
      carry = static_cast<std::uint32_t>(cur >> 32);
    }
    limbs[limb_shift + old_size] = carry;
  }
  normalize();
  return *this;
}

BigUint& BigUint::operator>>=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= size_) {
    size_ = 0;
    return *this;
  }
  const std::size_t n = size_ - limb_shift;
  std::uint32_t* limbs = data();
  if (limb_shift != 0) {
    std::memmove(limbs, limbs + limb_shift, n * sizeof(std::uint32_t));
  }
  if (bit_shift != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t cur = limbs[i] >> bit_shift;
      if (i + 1 < n) {
        cur |= static_cast<std::uint64_t>(limbs[i + 1]) << (32 - bit_shift);
      }
      limbs[i] = static_cast<std::uint32_t>(cur);
    }
  }
  size_ = static_cast<std::uint32_t>(n);
  normalize();
  return *this;
}

bool operator==(const BigUint& lhs, const BigUint& rhs) noexcept {
  return lhs.size_ == rhs.size_ &&
         std::memcmp(lhs.data(), rhs.data(),
                     lhs.size_ * sizeof(std::uint32_t)) == 0;
}

std::strong_ordering operator<=>(const BigUint& lhs, const BigUint& rhs) noexcept {
  if (lhs.size_ != rhs.size_) return lhs.size_ <=> rhs.size_;
  const std::uint32_t* a = lhs.data();
  const std::uint32_t* b = rhs.data();
  for (std::size_t i = lhs.size_; i-- > 0;) {
    if (a[i] != b[i]) return a[i] <=> b[i];
  }
  return std::strong_ordering::equal;
}

BigUint::DivMod BigUint::divmod(const BigUint& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigUint: division by zero");
  if (*this < divisor) return {BigUint{}, *this};
  const std::uint32_t* u = data();
  const std::uint32_t* v = divisor.data();
  if (divisor.size_ == 1) {
    // Fast single-limb path.
    const std::uint64_t d = v[0];
    BigUint quotient;
    quotient.resize(size_);
    std::uint32_t* quo = quotient.data();
    std::uint64_t rem = 0;
    for (std::size_t i = size_; i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | u[i];
      quo[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    quotient.normalize();
    return {std::move(quotient), BigUint(rem)};
  }
  // General case: Knuth Algorithm D (TAOCP 4.3.1) on 32-bit limbs. O(m*n)
  // word operations instead of the O(bits * n) of bit-at-a-time division;
  // the CRT encoder's `sum % range` calls sit on this path.
  const std::size_t n = divisor.size_;
  const std::size_t m = size_ - n;

  // D1: normalize so the divisor's top limb has its high bit set. The
  // dividend gains one extra (possibly zero) limb. Both working copies are
  // plain limb buffers (BigUints used for their small-buffer storage, not
  // as normalized values).
  const unsigned shift = static_cast<unsigned>(__builtin_clz(v[n - 1]));
  BigUint un_buffer;
  un_buffer.resize(size_ + 1);
  BigUint vn_buffer;
  vn_buffer.resize(n);
  std::uint32_t* un = un_buffer.data();
  std::uint32_t* vn = vn_buffer.data();
  if (shift == 0) {
    std::copy(u, u + size_, un);
    std::copy(v, v + n, vn);
  } else {
    un[size_] = u[size_ - 1] >> (32 - shift);
    for (std::size_t i = size_; i-- > 1;) {
      un[i] = (u[i] << shift) | (u[i - 1] >> (32 - shift));
    }
    un[0] = u[0] << shift;
    for (std::size_t i = n; i-- > 1;) {
      vn[i] = (v[i] << shift) | (v[i - 1] >> (32 - shift));
    }
    vn[0] = v[0] << shift;
  }

  BigUint quotient;
  quotient.resize(m + 1);
  std::uint32_t* quo = quotient.data();
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate the quotient digit from the top two dividend limbs and
    // the top divisor limb, then refine with the second divisor limb until
    // the estimate is at most one too large.
    const std::uint64_t num =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = num / vn[n - 1];
    std::uint64_t rhat = num % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    // D4: multiply and subtract qhat * vn from un[j..j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(un[i + j]) - borrow -
                             static_cast<std::int64_t>(p & 0xFFFFFFFFULL);
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    const std::int64_t top = static_cast<std::int64_t>(un[j + n]) -
                             static_cast<std::int64_t>(carry) - borrow;
    un[j + n] = static_cast<std::uint32_t>(top);
    quo[j] = static_cast<std::uint32_t>(qhat);
    if (top < 0) {
      // D6: the (rare) estimate-off-by-one case — add the divisor back.
      --quo[j];
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s = static_cast<std::uint64_t>(un[i + j]) +
                                vn[i] + add_carry;
        un[i + j] = static_cast<std::uint32_t>(s);
        add_carry = s >> 32;
      }
      un[j + n] =
          static_cast<std::uint32_t>(static_cast<std::uint64_t>(un[j + n]) +
                                     add_carry);
    }
  }

  // D8: denormalize the remainder (un[0..n-1] >> shift).
  BigUint remainder;
  remainder.resize(n);
  std::uint32_t* rem = remainder.data();
  if (shift == 0) {
    std::copy(un, un + n, rem);
  } else {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      rem[i] = (un[i] >> shift) | (un[i + 1] << (32 - shift));
    }
    rem[n - 1] = un[n - 1] >> shift;
  }
  quotient.normalize();
  remainder.normalize();
  return {std::move(quotient), std::move(remainder)};
}

std::uint64_t BigUint::mod_u64(std::uint64_t divisor) const {
  if (divisor == 0) throw std::domain_error("BigUint: division by zero");
  const std::uint32_t* limbs = data();
  std::uint64_t rem = 0;
  for (std::size_t i = size_; i-- > 0;) {
    const auto cur = static_cast<__uint128_t>(rem) << 32 | limbs[i];
    rem = static_cast<std::uint64_t>(cur % divisor);
  }
  return rem;
}

void BigUint::append_decimal(std::string& out) const {
  if (is_zero()) {
    out.push_back('0');
    return;
  }
  // Short division by 10^9 over a copy of the limbs: each pass peels off
  // the lowest nine digits, written right to left into room made at the
  // end of `out` (a 32-bit limb carries under ten decimal digits).
  constexpr std::size_t kStackLimbs = 16;
  constexpr std::uint32_t kChunk = 1000000000;
  std::uint32_t stack[kStackLimbs]{};
  std::unique_ptr<std::uint32_t[]> spill;
  std::uint32_t* work = stack;
  if (size_ > kStackLimbs) {
    spill = std::make_unique<std::uint32_t[]>(size_);
    work = spill.get();
  }
  std::copy_n(data(), size_, work);
  std::size_t n = size_;
  const std::size_t base = out.size();
  out.resize(base + 10 * n);
  char* const first = out.data() + base;
  char* p = out.data() + out.size();
  while (n > 0) {
    std::uint64_t rem = 0;
    for (std::size_t i = n; i-- > 0;) {
      const std::uint64_t cur = rem << 32 | work[i];
      work[i] = static_cast<std::uint32_t>(cur / kChunk);
      rem = cur % kChunk;
    }
    while (n > 0 && work[n - 1] == 0) --n;
    // Inner chunks keep their leading zeros; the most significant does not.
    auto chunk = static_cast<std::uint32_t>(rem);
    for (int d = 0; d < 9 && (n > 0 || chunk != 0); ++d) {
      *--p = static_cast<char>('0' + chunk % 10);
      chunk /= 10;
    }
  }
  out.erase(base, static_cast<std::size_t>(p - first));
}

std::string BigUint::to_string() const {
  std::string out;
  append_decimal(out);
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint32_t* limbs = data();
  std::string out;
  for (std::size_t i = size_; i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kHex[(limbs[i] >> shift) & 0xF]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

std::ostream& operator<<(std::ostream& os, const BigUint& value) {
  return os << value.to_string();
}

}  // namespace kar::rns
