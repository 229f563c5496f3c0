// UMAC: fast universal-hashing message authentication
// (Black, Halevi, Krawczyk, Krovetz, Rogaway — CRYPTO '99 / RFC 4418).
//
// This is the MAC the paper selects for the ICRC authentication tag because
// its NH inner loop runs at a few tenths of a cycle per byte, fast enough to
// authenticate at IBA link rate (Table 4: 0.7 cycles/byte, ~4 Gb/s at
// 350 MHz, forgery probability 2^-30 for a 32-bit tag).
//
// Structure (faithful to RFC 4418; see each layer's comment):
//   L1  NH hash:    1024-byte blocks -> 64-bit values, word-wise
//                   add-then-multiply universal hash.
//   L2  POLY hash:  the sequence of L1 outputs -> one 128-bit value via a
//                   polynomial over GF(2^64 - 59) (skipped for single-block
//                   messages, i.e. every IBA packet at MTU 1024/2048/4096).
//   L3  Inner-product hash: 16 bytes -> 32 bits over GF(2^36 - 5).
//   PDF Pad-derivation: AES-128 of the nonce, XORed onto the L3 output,
//                   making tags stateless-verifiable and nonce-distinct.
//
// Key schedule (NH key, poly key, inner-product keys, pad key) is derived
// from the 16-byte user key with an AES-based KDF and cached, so per-packet
// work is hashing + one AES call amortized over 4 nonces.
//
// Byte-exact RFC 4418 test vectors are not asserted (no network access to
// cross-check the appendix); instead the test suite pins self-generated
// vectors for regression plus the construction's algebraic properties.
// UMAC-64 runs two Toeplitz-shifted instances of the same machinery.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes128.h"

namespace ibsec::crypto {

class Umac32;
class Umac64;

namespace detail {

/// Umac32::tag and Umac64::tag with the pad's AES on `pad_kernel`, whatever
/// this CPU runs. Table 4's paper rows pass the scalar kernel.
std::uint32_t umac32_tag(const Umac32& umac,
                         std::span<const std::uint8_t> message,
                         std::uint64_t nonce, Aes128::EncryptFn pad_kernel);
std::uint64_t umac64_tag(const Umac64& umac,
                         std::span<const std::uint8_t> message,
                         std::uint64_t nonce, Aes128::EncryptFn pad_kernel);

}  // namespace detail

namespace umac_detail {

/// One Toeplitz iteration of the three-layer hash. Shared by Umac32/Umac64.
class HashIteration {
 public:
  /// `nh_key` must hold kL1KeyBytes bytes starting at the iteration's
  /// Toeplitz offset; poly/l3 keys are per-iteration.
  void init(std::span<const std::uint8_t> nh_key, std::uint64_t poly_key,
            std::span<const std::uint64_t, 8> l3_key1, std::uint32_t l3_key2);

  /// 32-bit universal-hash output for the message (before the PDF pad).
  std::uint32_t hash(std::span<const std::uint8_t> message) const;

  static constexpr std::size_t kL1BlockBytes = 1024;

 private:
  std::uint64_t nh_block(const std::uint8_t* data, std::size_t len) const;
  /// Folds one L1 block that is not the last into the running L2
  /// polynomial state.
  void absorb(std::uint64_t& poly_y, const std::uint8_t* data,
              std::size_t len) const;
  /// Hashes the last block and finishes L2 + L3. `multi` selects the
  /// single-block identity-L2 fast path vs. the polynomial path.
  std::uint32_t finish(bool multi, std::uint64_t poly_y,
                       const std::uint8_t* last, std::size_t len) const;

  std::array<std::uint32_t, kL1BlockBytes / 4> nh_key_{};
  std::uint64_t poly_key_ = 0;
  std::array<std::uint64_t, 8> l3_key1_{};
  std::uint32_t l3_key2_ = 0;
};

}  // namespace umac_detail

/// UMAC with a 32-bit tag (the paper's "UMAC-2/4"-class configuration:
/// 4-byte tag, suitable for the 32-bit ICRC field).
class Umac32 {
 public:
  static constexpr std::size_t kKeySize = 16;
  static constexpr std::size_t kTagBytes = 4;
  /// Messages longer than this are rejected (single poly stage); IBA packets
  /// are < 5 KB so the fabric never comes close.
  static constexpr std::size_t kMaxMessageBytes = 1 << 24;

  explicit Umac32(std::span<const std::uint8_t> key);

  /// Tag for (message, nonce). The nonce must not repeat under one key;
  /// the fabric uses the packet sequence number.
  std::uint32_t tag(std::span<const std::uint8_t> message,
                    std::uint64_t nonce) const;

  bool verify(std::span<const std::uint8_t> message, std::uint64_t nonce,
              std::uint32_t expected) const {
    return tag(message, nonce) == expected;
  }

 private:
  /// The PDF stage: AES of the lane-masked nonce, on `pad_kernel`, XORed
  /// onto the hash output.
  std::uint32_t pdf_xor(std::uint32_t hashed, std::uint64_t nonce,
                        Aes128::EncryptFn pad_kernel) const;

  umac_detail::HashIteration iter_;
  Aes128 pdf_cipher_;

  friend std::uint32_t detail::umac32_tag(const Umac32&,
                                          std::span<const std::uint8_t>,
                                          std::uint64_t, Aes128::EncryptFn);
};

/// UMAC with a 64-bit tag (two Toeplitz iterations). Not used on the IBA
/// wire (the ICRC field is 32 bits) but provided for the Table 4 sweep and
/// for callers wanting 2^-60 forgery bounds.
class Umac64 {
 public:
  static constexpr std::size_t kKeySize = 16;
  static constexpr std::size_t kTagBytes = 8;

  explicit Umac64(std::span<const std::uint8_t> key);

  std::uint64_t tag(std::span<const std::uint8_t> message,
                    std::uint64_t nonce) const;

  bool verify(std::span<const std::uint8_t> message, std::uint64_t nonce,
              std::uint64_t expected) const {
    return tag(message, nonce) == expected;
  }

 private:
  std::array<umac_detail::HashIteration, 2> iters_;
  Aes128 pdf_cipher_;

  friend std::uint64_t detail::umac64_tag(const Umac64&,
                                          std::span<const std::uint8_t>,
                                          std::uint64_t, Aes128::EncryptFn);
};

}  // namespace ibsec::crypto
