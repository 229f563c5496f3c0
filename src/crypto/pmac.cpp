#include "crypto/pmac.h"

#include <cstring>
#include <stdexcept>

namespace ibsec::crypto {
namespace {

// Multiply a 128-bit value (big-endian byte order) by x in GF(2^128) with
// the standard reduction polynomial x^128 + x^7 + x^2 + x + 1.
Aes128::Block gf128_double(const Aes128::Block& in) {
  Aes128::Block out;
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    const std::uint8_t b = in[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((b << 1) | carry);
    carry = b >> 7;
  }
  if (carry) out[15] ^= 0x87;
  return out;
}

// Multiply by x^-1: the inverse of gf128_double.
Aes128::Block gf128_halve(const Aes128::Block& in) {
  Aes128::Block out;
  const bool lsb = in[15] & 1;
  std::uint8_t carry = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint8_t b = in[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((b >> 1) | (carry << 7));
    carry = b & 1;
  }
  if (lsb) {
    out[0] ^= 0x80;
    out[15] ^= 0x43;
  }
  return out;
}

void xor_into(Aes128::Block& dst, const Aes128::Block& src) {
  for (std::size_t i = 0; i < 16; ++i) dst[i] ^= src[i];
}

int ntz(std::uint64_t i) { return __builtin_ctzll(i); }

}  // namespace

Pmac::Pmac(std::span<const std::uint8_t> key) : cipher_(Aes128::Block{}) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("Pmac: key must be 16 bytes");
  }
  Aes128::Block k;
  std::memcpy(k.data(), key.data(), kKeySize);
  cipher_ = Aes128(k);

  const Aes128::Block zero{};
  cipher_.encrypt_block(zero.data(), l_.data());
  l_inv_ = gf128_halve(l_);
  l_shifted_.reserve(64);
  Aes128::Block cur = l_;
  for (int i = 0; i < 64; ++i) {
    l_shifted_.push_back(cur);
    cur = gf128_double(cur);
  }
}

Aes128::Block Pmac::tag(std::span<const std::uint8_t> message) const {
  Aes128::Block sigma{};
  Aes128::Block offset{};
  Aes128::Block scratch, enc;

  const std::size_t full_blocks = message.size() / 16;
  const std::size_t rem = message.size() % 16;
  // Blocks 1 .. m-1 (the last block is folded in unencrypted).
  const std::size_t pre =
      rem == 0 && full_blocks > 0 ? full_blocks - 1 : full_blocks;

  for (std::size_t i = 1; i <= pre; ++i) {
    xor_into(offset, l_shifted_[static_cast<std::size_t>(ntz(i))]);
    std::memcpy(scratch.data(), message.data() + 16 * (i - 1), 16);
    xor_into(scratch, offset);
    cipher_.encrypt_block(scratch.data(), enc.data());
    xor_into(sigma, enc);
  }

  if (rem == 0 && full_blocks > 0) {
    // Final full block: Sigma ^= M_m ^ (L * x^-1).
    std::memcpy(scratch.data(), message.data() + 16 * (full_blocks - 1), 16);
    xor_into(sigma, scratch);
    xor_into(sigma, l_inv_);
  } else {
    // Partial (or empty) final block: pad with 10*. An empty message's
    // data() may be null, which memcpy must not see even for 0 bytes.
    scratch.fill(0);
    if (rem != 0) {
      std::memcpy(scratch.data(), message.data() + 16 * full_blocks, rem);
    }
    scratch[rem] = 0x80;
    xor_into(sigma, scratch);
  }

  Aes128::Block out;
  cipher_.encrypt_block(sigma.data(), out.data());
  return out;
}

std::uint32_t Pmac::tag32(std::span<const std::uint8_t> message,
                          std::uint64_t nonce) const {
  const Aes128::Block full = tag(message);
  // Whiten with an encrypted nonce block (PMAC is deterministic by itself).
  Aes128::Block nonce_block{}, pad;
  for (int i = 0; i < 8; ++i) {
    nonce_block[static_cast<std::size_t>(15 - i)] =
        static_cast<std::uint8_t>(nonce >> (8 * i));
  }
  nonce_block[0] = 0xA5;  // domain separation from PMAC block inputs
  cipher_.encrypt_block(nonce_block.data(), pad.data());
  return (static_cast<std::uint32_t>(full[0]) << 24 |
          static_cast<std::uint32_t>(full[1]) << 16 |
          static_cast<std::uint32_t>(full[2]) << 8 | full[3]) ^
         (static_cast<std::uint32_t>(pad[0]) << 24 |
          static_cast<std::uint32_t>(pad[1]) << 16 |
          static_cast<std::uint32_t>(pad[2]) << 8 | pad[3]);
}

}  // namespace ibsec::crypto
