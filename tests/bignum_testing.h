// Test support for BigInt: byte and hex codecs for writing big-integer
// vectors, and a textbook modular exponentiation (no Montgomery form) to
// check BigInt::modexp against.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hex.h"
#include "crypto/bignum.h"
#include "support/from_hex.h"

namespace ibsec::crypto {

/// Minimal big-endian bytes (none for zero).
inline std::vector<std::uint8_t> bigint_to_bytes(const BigInt& value) {
  std::vector<std::uint8_t> bytes((value.bit_length() + 7) / 8);
  value.to_bytes_be(bytes);
  return bytes;
}

/// Lower-case hex without leading zeros ("0" for zero).
inline std::string bigint_to_hex(const BigInt& value) {
  const std::string hex = ibsec::to_hex(bigint_to_bytes(value));
  const std::size_t first = hex.find_first_not_of('0');
  return first == std::string::npos ? "0" : hex.substr(first);
}

/// Parses hex digits of any length (leading zeros allowed); throws
/// std::invalid_argument on a non-hex digit.
inline BigInt bigint_from_hex(std::string_view hex) {
  std::string even(hex.size() % 2, '0');
  even += hex;
  return BigInt::from_bytes_be(ibsec::from_hex(even));
}

/// (x + y) mod m for x, y < m, without leaving [0, m).
inline BigInt reference_addmod(const BigInt& x, const BigInt& y,
                               const BigInt& m) {
  return x >= m - y ? x - (m - y) : x + y;
}

/// (x * y) mod m for x, y < m: operator* then operator% while the product
/// fits in a BigInt, else double-and-add over y's bits (for moduli past half
/// the capacity, whose products do not fit).
inline BigInt reference_mulmod(const BigInt& x, const BigInt& y,
                               const BigInt& m) {
  constexpr std::size_t kMaxBits = BigInt::kMaxLimbs * BigInt::kLimbBits;
  if (x.bit_length() + y.bit_length() <= kMaxBits) {
    return (x * y) % m;
  }
  BigInt acc;
  for (std::size_t i = y.bit_length(); i-- > 0;) {
    acc = reference_addmod(acc, acc, m);
    if (y.bit(i)) acc = reference_addmod(acc, x, m);
  }
  return acc;
}

/// (base ^ exponent) mod modulus by right-to-left square-and-multiply over
/// reference_mulmod: no Montgomery form, any nonzero modulus.
inline BigInt reference_modexp(const BigInt& base, const BigInt& exponent,
                               const BigInt& modulus) {
  BigInt result = BigInt(1) % modulus;
  BigInt b = base % modulus;
  for (std::size_t i = 0; i < exponent.bit_length(); ++i) {
    if (exponent.bit(i)) result = reference_mulmod(result, b, modulus);
    b = reference_mulmod(b, b, modulus);
  }
  return result;
}

}  // namespace ibsec::crypto
