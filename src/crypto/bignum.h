// Fixed-capacity unsigned integers for the RSA key-distribution path.
//
// The paper's key-management schemes assume the Subnet Manager can encrypt a
// partition/QP secret to a Channel Adapter's public key ("we assume SM knows
// public keys of all CAs"). We build that primitive from scratch: this
// module supplies the non-negative big-integer arithmetic (schoolbook
// multiply, Knuth Algorithm D division, Euclid's extended algorithm by
// division, and modular exponentiation in Montgomery form for odd moduli)
// that rsa.{h,cpp} composes into keygen and encryption.
//
// A BigInt holds its 64-bit limbs inline, so no operator allocates. The
// capacity is 2048 bits, the largest RSA modulus rsa.h supports; every value
// keygen, CRT decryption and Montgomery exponentiation form stays within
// it, and a result past it fails an IBSEC_CHECK. At these sizes
// asymptotically fancy algorithms are deliberately omitted.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace ibsec::crypto {

class BigInt {
 public:
  using Limb = std::uint64_t;
  static constexpr std::size_t kLimbBits = 64;
  static constexpr std::size_t kMaxLimbs = 32;
  static constexpr std::size_t kMaxBytes = kMaxLimbs * sizeof(Limb);

  BigInt() = default;
  BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor)

  /// Big-endian byte import (no sign, leading zeros tolerated). The value
  /// must fit in kMaxLimbs limbs.
  static BigInt from_bytes_be(std::span<const std::uint8_t> bytes);
  /// Big-endian export into exactly `out.size()` bytes, left-padded with
  /// zeros. The value must fit.
  void to_bytes_be(std::span<std::uint8_t> out) const;

  bool is_zero() const { return size_ == 0; }
  bool is_odd() const { return limbs_[0] & 1u; }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;

  int compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return compare(o) != 0; }
  bool operator<(const BigInt& o) const { return compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return compare(o) >= 0; }

  BigInt operator+(const BigInt& o) const;
  /// Requires *this >= o (unsigned arithmetic); throws std::underflow_error.
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  struct DivMod;  // { quotient, remainder }; defined after the class
  /// Knuth Algorithm D; throws std::domain_error on division by zero.
  DivMod divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;

  /// Remainder modulo a machine word (fast path for trial division).
  std::uint32_t mod_u32(std::uint32_t m) const;

  /// (base ^ exponent) mod modulus; modulus must be nonzero. An odd modulus
  /// (every RSA modulus and prime) runs in Montgomery form; an even one
  /// falls back to square-and-multiply over operator* and operator%.
  static BigInt modexp(const BigInt& base, const BigInt& exponent,
                       const BigInt& modulus);

  /// Multiplicative inverse of a modulo m, if gcd(a, m) == 1.
  static std::optional<BigInt> mod_inverse(const BigInt& a, const BigInt& m);

  /// Uniform value in [0, bound) using a caller-supplied random source:
  /// `random_bytes(out)` must fill the span it is given.
  template <typename ByteSource>
  static BigInt random_below(const BigInt& bound, ByteSource&& random_bytes) {
    const std::size_t bits = bound.bit_length();
    std::array<std::uint8_t, kMaxBytes> storage;
    const std::span<std::uint8_t> buf =
        std::span<std::uint8_t>(storage).first((bits + 7) / 8);
    for (;;) {
      random_bytes(buf);
      // Mask excess high bits so rejection succeeds quickly.
      if (bits % 8 != 0) {
        buf[0] &= static_cast<std::uint8_t>((1u << (bits % 8)) - 1);
      }
      BigInt candidate = from_bytes_be(buf);
      if (candidate < bound) return candidate;
    }
  }

 private:
  friend class Montgomery;

  void trim();

  // Little-endian limbs; limbs_[size_..] are always zero, size_ == 0 is zero.
  std::array<Limb, kMaxLimbs> limbs_{};
  std::size_t size_ = 0;
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::operator/(const BigInt& o) const {
  return divmod(o).quotient;
}
inline BigInt BigInt::operator%(const BigInt& o) const {
  return divmod(o).remainder;
}

/// Arithmetic modulo a fixed odd modulus m in Montgomery form: a residue x
/// is held as x·R mod m with R = 2^(64·limbs of m), so a product reduces by
/// shifts and word multiplies instead of a division (Montgomery, "Modular
/// multiplication without trial division", Math. Comp. 1985). Values in
/// the domain compare equal exactly when the residues they stand for do.
class Montgomery {
 public:
  /// `modulus` must be odd.
  explicit Montgomery(const BigInt& modulus);

  /// x·R mod m, for any x.
  BigInt enter(const BigInt& x) const;
  /// The residue a domain value stands for: x·R^-1 mod m.
  BigInt leave(const BigInt& x) const;
  /// a·b·R^-1 mod m: the domain product of two domain values.
  BigInt mul(const BigInt& a, const BigInt& b) const;
  /// x^exponent in the domain (left-to-right square-and-multiply).
  BigInt pow(const BigInt& x, const BigInt& exponent) const;

 private:
  BigInt m_;
  BigInt r2_;              // R^2 mod m
  BigInt::Limb m_inv_ = 0;  // -m^-1 mod 2^64
};

}  // namespace ibsec::crypto
