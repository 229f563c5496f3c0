#include "crypto/bignum.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>

#include "common/annotations.h"
#include "common/check.h"

namespace ibsec::crypto {
namespace {

using Limb = BigInt::Limb;
using Wide = unsigned __int128;

constexpr std::size_t kMaxLimbs = BigInt::kMaxLimbs;
// Scratch wide enough for Knuth D to reduce R^2 = 2^(128·limbs) modulo a
// full-width modulus: 2·kMaxLimbs + 1 limbs, plus the algorithm's extra
// high limb.
constexpr std::size_t kWideLimbs = 2 * kMaxLimbs + 2;

/// Number of significant limbs in a[0 .. n).
std::size_t significant(const Limb* a, std::size_t n) {
  while (n > 0 && a[n - 1] == 0) --n;
  return n;
}

/// Knuth TAOCP vol. 2, Algorithm D on raw limbs: q = u / v (un - vn + 1
/// limbs) and r = u % v (vn limbs), for un >= vn >= 1 and v[vn - 1] != 0.
void divmod_limbs(const Limb* u, std::size_t un, const Limb* v,
                  std::size_t vn, Limb* q, Limb* r) {
  if (vn == 1) {
    Limb rem = 0;
    for (std::size_t i = un; i-- > 0;) {
      const Wide cur = (static_cast<Wide>(rem) << 64) | u[i];
      q[i] = static_cast<Limb>(cur / v[0]);
      rem = static_cast<Limb>(cur % v[0]);
    }
    r[0] = rem;
    return;
  }

  // Normalise so the divisor's top limb has its high bit set, making the
  // two-limb quotient estimate off by at most 2.
  const int shift = std::countl_zero(v[vn - 1]);
  const auto hi = [shift](Limb x) -> Limb {
    return shift ? x >> (64 - shift) : 0;
  };
  std::array<Limb, kMaxLimbs> vs;
  std::array<Limb, kWideLimbs> us;
  for (std::size_t i = vn; i-- > 1;) vs[i] = (v[i] << shift) | hi(v[i - 1]);
  vs[0] = v[0] << shift;
  us[un] = hi(u[un - 1]);
  for (std::size_t i = un; i-- > 1;) us[i] = (u[i] << shift) | hi(u[i - 1]);
  us[0] = u[0] << shift;

  const Limb vtop = vs[vn - 1];
  for (std::size_t j = un - vn + 1; j-- > 0;) {
    const Wide numerator =
        (static_cast<Wide>(us[j + vn]) << 64) | us[j + vn - 1];
    Wide qhat = numerator / vtop;
    Wide rhat = numerator % vtop;
    while ((qhat >> 64) != 0 ||
           qhat * vs[vn - 2] > ((rhat << 64) | us[j + vn - 2])) {
      --qhat;
      rhat += vtop;
      if ((rhat >> 64) != 0) break;
    }

    // Multiply-and-subtract qhat * v from u[j .. j+vn].
    Limb borrow = 0;
    Limb carry = 0;
    for (std::size_t i = 0; i < vn; ++i) {
      const Wide product = qhat * vs[i] + carry;
      carry = static_cast<Limb>(product >> 64);
      const Limb low = static_cast<Limb>(product);
      const Limb cur = us[i + j];
      us[i + j] = cur - low - borrow;
      borrow = (cur < low || cur - low < borrow) ? 1 : 0;
    }
    const Limb top = us[j + vn];
    us[j + vn] = top - carry - borrow;
    if (top < carry || top - carry < borrow) {
      // qhat was one too large: add v back.
      --qhat;
      Limb add_carry = 0;
      for (std::size_t i = 0; i < vn; ++i) {
        const Wide s = static_cast<Wide>(us[i + j]) + vs[i] + add_carry;
        us[i + j] = static_cast<Limb>(s);
        add_carry = static_cast<Limb>(s >> 64);
      }
      us[j + vn] += add_carry;
    }
    q[j] = static_cast<Limb>(qhat);
  }

  // Denormalise the remainder, which sits in us[0 .. vn).
  for (std::size_t i = 0; i < vn; ++i) {
    r[i] = (us[i] >> shift) | (shift ? us[i + 1] << (64 - shift) : 0);
  }
}

/// CIOS Montgomery product: out = a·b·R^-1 mod m for a, b < m, each n limbs
/// (out may alias a or b). m_inv is -m^-1 mod 2^64. N > 0 fixes n = N at
/// compile time, so the loops over a small modulus unroll; N == 0 takes n
/// as given.
template <std::size_t N>
IBSEC_HOT void mont_mul(Limb* out, const Limb* a, const Limb* b, const Limb* m,
                        std::size_t n, Limb m_inv) {
  if constexpr (N != 0) n = N;
  std::array<Limb, kMaxLimbs + 2> t;
  std::fill_n(t.begin(), n + 2, Limb{0});
  for (std::size_t i = 0; i < n; ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const Wide s = static_cast<Wide>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    Wide s = static_cast<Wide>(t[n]) + carry;
    t[n] = static_cast<Limb>(s);
    t[n + 1] = static_cast<Limb>(s >> 64);

    // Add u·m, with u chosen so the low limb cancels, and shift one limb.
    const Limb u = t[0] * m_inv;
    s = static_cast<Wide>(u) * m[0] + t[0];
    carry = static_cast<Limb>(s >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      s = static_cast<Wide>(u) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    s = static_cast<Wide>(t[n]) + carry;
    t[n - 1] = static_cast<Limb>(s);
    t[n] = t[n + 1] + static_cast<Limb>(s >> 64);
  }

  // t < 2m: one conditional subtraction lands in [0, m).
  bool at_least_m = t[n] != 0;
  if (!at_least_m) {
    at_least_m = true;  // t == m also subtracts, to 0
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != m[i]) {
        at_least_m = t[i] > m[i];
        break;
      }
    }
  }
  if (!at_least_m) {
    std::copy_n(t.begin(), n, out);
    return;
  }
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = t[i] - m[i] - borrow;
    borrow = (t[i] < m[i] || t[i] - m[i] < borrow) ? 1 : 0;
  }
}

/// acc = acc^e in the Montgomery domain of m (n limbs), for e >= 1 whose top
/// bit acc already accounts for: left-to-right square-and-multiply by x.
template <std::size_t N>
IBSEC_HOT void mont_pow(Limb* acc, const Limb* x, const BigInt& e,
                        const Limb* m, std::size_t n, Limb m_inv) {
  for (std::size_t i = e.bit_length() - 1; i-- > 0;) {
    mont_mul<N>(acc, acc, acc, m, n, m_inv);
    if (e.bit(i)) mont_mul<N>(acc, acc, x, m, n, m_inv);
  }
}

}  // namespace

BigInt::BigInt(std::uint64_t value) {
  limbs_[0] = value;
  size_ = value ? 1 : 0;
}

void BigInt::trim() { size_ = significant(limbs_.data(), size_); }

BigInt BigInt::from_bytes_be(std::span<const std::uint8_t> bytes) {
  std::size_t start = 0;
  while (start < bytes.size() && bytes[start] == 0) ++start;
  const std::size_t len = bytes.size() - start;
  IBSEC_CHECK(len <= kMaxBytes)
      << "BigInt::from_bytes_be: " << len << " significant bytes exceed "
      << kMaxBytes;
  BigInt out;
  for (std::size_t i = 0; i < len; ++i) {
    out.limbs_[i / 8] |= static_cast<Limb>(bytes[bytes.size() - 1 - i])
                         << (8 * (i % 8));
  }
  out.size_ = (len + 7) / 8;
  return out;
}

void BigInt::to_bytes_be(std::span<std::uint8_t> out) const {
  const std::size_t needed = (bit_length() + 7) / 8;
  IBSEC_CHECK(needed <= out.size())
      << "BigInt::to_bytes_be: " << needed << " bytes into " << out.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[out.size() - 1 - i] =
        i < needed ? static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)))
                   : 0;
  }
}

std::size_t BigInt::bit_length() const {
  if (size_ == 0) return 0;
  return (size_ - 1) * kLimbBits +
         static_cast<std::size_t>(std::bit_width(limbs_[size_ - 1]));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / kLimbBits;
  if (limb >= size_) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1u;
}

int BigInt::compare(const BigInt& other) const {
  if (size_ != other.size_) return size_ < other.size_ ? -1 : 1;
  for (std::size_t i = size_; i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  const std::size_t n = std::max(size_, o.size_);
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Wide sum = static_cast<Wide>(limbs_[i]) + o.limbs_[i] + carry;
    out.limbs_[i] = static_cast<Limb>(sum);
    carry = static_cast<Limb>(sum >> 64);
  }
  out.size_ = n;
  if (carry) {
    IBSEC_CHECK(n < kMaxLimbs) << "BigInt::operator+: sum exceeds "
                               << kMaxLimbs << " limbs";
    out.limbs_[n] = carry;
    out.size_ = n + 1;
  }
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw std::underflow_error("BigInt subtraction underflow");
  BigInt out;
  Limb borrow = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const Limb a = limbs_[i];
    const Limb b = o.limbs_[i];
    out.limbs_[i] = a - b - borrow;
    borrow = (a < b || a - b < borrow) ? 1 : 0;
  }
  out.size_ = size_;
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return {};
  std::array<Limb, 2 * kMaxLimbs> product;
  std::fill_n(product.begin(), size_ + o.size_, Limb{0});
  for (std::size_t i = 0; i < size_; ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < o.size_; ++j) {
      const Wide cur = static_cast<Wide>(limbs_[i]) * o.limbs_[j] +
                       product[i + j] + carry;
      product[i + j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    product[i + o.size_] = carry;
  }
  const std::size_t len = significant(product.data(), size_ + o.size_);
  IBSEC_CHECK(len <= kMaxLimbs) << "BigInt::operator*: product of " << len
                                << " limbs exceeds " << kMaxLimbs;
  BigInt out;
  std::copy_n(product.begin(), len, out.limbs_.begin());
  out.size_ = len;
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  IBSEC_CHECK(bit_length() + bits <= kMaxLimbs * kLimbBits)
      << "BigInt::operator<<: " << bit_length() << " + " << bits
      << " bits exceed " << kMaxLimbs << " limbs";
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  BigInt out;
  for (std::size_t i = 0; i < size_; ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift && i + limb_shift + 1 < kMaxLimbs) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
    }
  }
  out.size_ = std::min(size_ + limb_shift + 1, kMaxLimbs);
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= size_) return {};
  const std::size_t bit_shift = bits % kLimbBits;
  BigInt out;
  out.size_ = size_ - limb_shift;
  for (std::size_t i = 0; i < out.size_; ++i) {
    Limb value = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < size_) {
      value |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = value;
  }
  out.trim();
  return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt division by zero");
  if (*this < divisor) return {BigInt{}, *this};
  DivMod out;
  divmod_limbs(limbs_.data(), size_, divisor.limbs_.data(), divisor.size_,
               out.quotient.limbs_.data(), out.remainder.limbs_.data());
  out.quotient.size_ = size_ - divisor.size_ + 1;
  out.quotient.trim();
  out.remainder.size_ = divisor.size_;
  out.remainder.trim();
  return out;
}

std::uint32_t BigInt::mod_u32(std::uint32_t m) const {
  if (m == 0) throw std::domain_error("BigInt mod by zero");
  // Two 32-bit steps per limb keep every dividend within 64 bits.
  std::uint64_t rem = 0;
  for (std::size_t i = size_; i-- > 0;) {
    rem = ((rem << 32) | (limbs_[i] >> 32)) % m;
    rem = ((rem << 32) | (limbs_[i] & 0xFFFFFFFFu)) % m;
  }
  return static_cast<std::uint32_t>(rem);
}

BigInt BigInt::modexp(const BigInt& base, const BigInt& exponent,
                      const BigInt& modulus) {
  if (modulus.is_zero()) throw std::domain_error("modexp: zero modulus");
  if (modulus.is_odd()) {
    const Montgomery mont(modulus);
    return mont.leave(mont.pow(mont.enter(base), exponent));
  }
  BigInt result(1);
  BigInt b = base % modulus;
  const std::size_t bits = exponent.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exponent.bit(i)) result = (result * b) % modulus;
    b = (b * b) % modulus;
  }
  return result % modulus;
}

std::optional<BigInt> BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Iterative extended Euclid tracking only the coefficient of `a`, with
  // signs managed explicitly since BigInt is unsigned.
  BigInt old_r = a % m, r = m;
  BigInt old_s(1), s(0);
  bool old_s_neg = false, s_neg = false;
  while (!r.is_zero()) {
    const auto [q, rem] = old_r.divmod(r);
    old_r = r;
    r = rem;
    // new_s = old_s - q * s  (signed)
    BigInt qs = q * s;
    BigInt new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = s;
    old_s_neg = s_neg;
    s = new_s;
    s_neg = new_s_neg;
  }
  if (old_r != BigInt(1)) return std::nullopt;
  if (old_s_neg) return m - (old_s % m);
  return old_s % m;
}

Montgomery::Montgomery(const BigInt& modulus) : m_(modulus) {
  IBSEC_CHECK(m_.is_odd()) << "Montgomery: the modulus must be odd";
  const std::size_t n = m_.size_;
  // Newton's iteration for m^-1 mod 2^64: each step doubles the number of
  // correct low bits, 1 -> 64 in six.
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m_.limbs_[0] * inv;
  m_inv_ = Limb{0} - inv;
  // R^2 mod m by one division of 2^(128·n).
  std::array<Limb, kWideLimbs> r2{};
  std::array<Limb, kWideLimbs> quotient;
  r2[2 * n] = 1;
  divmod_limbs(r2.data(), 2 * n + 1, m_.limbs_.data(), n, quotient.data(),
               r2_.limbs_.data());
  r2_.size_ = n;
  r2_.trim();
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  IBSEC_DCHECK(a < m_ && b < m_);
  BigInt out;
  mont_mul<0>(out.limbs_.data(), a.limbs_.data(), b.limbs_.data(),
              m_.limbs_.data(), m_.size_, m_inv_);
  out.size_ = m_.size_;
  out.trim();
  return out;
}

BigInt Montgomery::enter(const BigInt& x) const {
  return x < m_ ? mul(x, r2_) : mul(x % m_, r2_);
}

BigInt Montgomery::leave(const BigInt& x) const {
  // 1 mod m, not 1: for m == 1 every residue is 0.
  return mul(x, BigInt(1) % m_);
}

BigInt Montgomery::pow(const BigInt& x, const BigInt& exponent) const {
  if (exponent.is_zero()) return enter(BigInt(1));
  const std::size_t n = m_.size_;
  // Unrolled kernels for moduli up to 512 bits (RSA-256/512 primes and
  // moduli); wider ones amortise the loop overhead. Index 0 never occurs.
  static constexpr decltype(&mont_pow<0>) kKernels[] = {
      mont_pow<0>, mont_pow<1>, mont_pow<2>, mont_pow<3>, mont_pow<4>,
      mont_pow<5>, mont_pow<6>, mont_pow<7>, mont_pow<8>};
  const auto kernel = n < std::size(kKernels) ? kKernels[n] : mont_pow<0>;
  BigInt acc = x;
  kernel(acc.limbs_.data(), x.limbs_.data(), exponent, m_.limbs_.data(), n,
         m_inv_);
  acc.size_ = n;
  acc.trim();
  return acc;
}

}  // namespace ibsec::crypto
