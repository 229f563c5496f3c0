// PMAC — Parallelizable Message Authentication Code (Black & Rogaway).
//
// The paper's Discussion (sec. 7) lists PMAC as a candidate for "fast
// authentication" in InfiniBand hardware: unlike HMAC's serial chaining,
// every block can be processed concurrently, matching a switch/CA pipeline.
// NIST had it under consideration as an authentication mode at the time.
//
// This is a PMAC1-style construction over AES-128:
//   L        = E_K(0^128);  L(i) = L * x^i in GF(2^128)
//   Offset_i = Offset_{i-1} xor L(ntz(i))        (Gray-code walk)
//   Sigma    = xor_i E_K(M_i xor Offset_i)       for blocks 1..m-1
//   last     : full block -> Sigma ^= M_m ^ (L * x^-1)
//              partial    -> Sigma ^= M_m || 10^*
//   Tag      = truncate(E_K(Sigma))
//
// Offline build: no official test vectors are asserted; the test suite pins
// self-generated vectors and verifies the algebraic properties (parallel
// block independence, length separation, truncation consistency).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes128.h"

namespace ibsec::crypto {

class Pmac {
 public:
  static constexpr std::size_t kKeySize = 16;

  explicit Pmac(std::span<const std::uint8_t> key);

  /// Full 128-bit tag.
  Aes128::Block tag(std::span<const std::uint8_t> message) const;

  /// Leftmost 32 bits, XOR-whitened with an encrypted nonce so the ICRC
  /// field gets a nonce-distinct tag (PMAC itself is deterministic; the
  /// fabric needs replayed payloads under new PSNs to produce new tags).
  std::uint32_t tag32(std::span<const std::uint8_t> message,
                      std::uint64_t nonce) const;

 private:
  Aes128 cipher_;
  Aes128::Block l_{};         // E_K(0)
  Aes128::Block l_inv_{};     // L * x^-1
  // L * x^i for i in [0, 63]: enough for 2^64-block messages.
  std::vector<Aes128::Block> l_shifted_;
};

}  // namespace ibsec::crypto
