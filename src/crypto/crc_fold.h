// Carry-less-multiply folding for the reflected CRCs (ICRC's CRC-32 and
// VCRC's CRC-16-IBA).
//
// The fold-by-4 scheme of Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). A CRC only cares
// about its input modulo the polynomial P, so a 128-bit lane of input can
// be moved D bits further along the message by multiplying its two 64-bit
// halves by x^(D+32) and x^(D-32) mod P and XORing the products into the
// lane D bits later. fold_pclmul keeps four lanes in flight, folding 64
// bytes per step, then collapses them 16 bytes at a time into a single
// 128-bit residue that is congruent to everything it consumed. The CRC's
// own scalar table kernel then finishes that residue, from state 0, and the
// tail of under 16 bytes, so there is no Barrett reduction and no second
// tail path. One routine serves both polynomials: each passes its own
// multipliers, and a CRC-16 state simply occupies the low 16 bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ibsec::crypto::detail {

/// Updates of this many bytes or more go to the folding kernel where the
/// CPU has one; shorter ones stay on the scalar table kernel.
inline constexpr std::size_t kCrcFoldMinBytes = 64;

/// rev32(x^power mod P) << 1 for the reflected polynomial `poly_reflected`
/// of degree `width` (<= 32): the multiplier layout PCLMULQDQ needs, 33 bits
/// wide. Derived by stepping x^0 up one power at a time, the same shift
/// and conditional XOR that builds the CRC tables.
constexpr std::uint64_t crc_fold_multiplier(std::uint32_t poly_reflected,
                                            int width, int power) {
  // Reflected over `width` bits: bit i holds the coefficient of
  // x^(width-1-i), so multiplying by x is a right shift.
  std::uint32_t r = 1u << (width - 1);
  for (int i = 0; i < power; ++i) {
    r = (r >> 1) ^ ((r & 1u) ? poly_reflected : 0u);
  }
  return static_cast<std::uint64_t>(r) << (33 - width);
}

/// The two multiplier pairs of one polynomial, for fold distances of 512
/// bits (four lanes) and 128 bits (one lane). `lo` multiplies a lane's
/// first 8 bytes, `hi` its last 8.
struct CrcFoldKeys {
  std::uint64_t k512_lo, k512_hi, k128_lo, k128_hi;
};

constexpr CrcFoldKeys crc_fold_keys(std::uint32_t poly_reflected, int width) {
  return {crc_fold_multiplier(poly_reflected, width, 512 + 32),
          crc_fold_multiplier(poly_reflected, width, 512 - 32),
          crc_fold_multiplier(poly_reflected, width, 128 + 32),
          crc_fold_multiplier(poly_reflected, width, 128 - 32)};
}

#if defined(__x86_64__)
/// Folds `state` and the longest 16-byte multiple of `data` into a 16-byte
/// `residue` whose CRC from state 0 is the state after that prefix, and
/// returns the unconsumed tail (under 16 bytes). Requires
/// data.size() >= kCrcFoldMinBytes and cpu().pclmul.
std::span<const std::uint8_t> crc_fold_pclmul(
    std::uint32_t state, std::span<const std::uint8_t> data,
    const CrcFoldKeys& keys, std::span<std::uint8_t, 16> residue);
#endif

}  // namespace ibsec::crypto::detail
