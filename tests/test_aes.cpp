// AES-128 against the FIPS 197 appendix vectors plus in-place, key and
// plaintext diffusion properties.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/aes128.h"

namespace ibsec::crypto {
namespace {

Aes128::Block block_from_hex(std::string_view h) {
  const auto bytes = from_hex(h);
  Aes128::Block b{};
  std::copy(bytes.begin(), bytes.end(), b.begin());
  return b;
}

TEST(Aes128, Fips197AppendixC1) {
  // FIPS 197 appendix C.1: AES-128(key=000102...0f, pt=00112233...ff).
  const Aes128 aes(block_from_hex("000102030405060708090a0b0c0d0e0f"));
  const auto ct = aes.encrypt(block_from_hex("00112233445566778899aabbccddeeff"));
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Fips197AppendixB) {
  // FIPS 197 appendix B worked example.
  const Aes128 aes(block_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto ct = aes.encrypt(block_from_hex("3243f6a8885a308d313198a2e0370734"));
  EXPECT_EQ(to_hex(ct), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128, InPlaceOperation) {
  const Aes128 aes(block_from_hex("000102030405060708090a0b0c0d0e0f"));
  auto buf = block_from_hex("00112233445566778899aabbccddeeff");
  aes.encrypt_block(buf.data(), buf.data());
  EXPECT_EQ(to_hex(buf), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, KeySensitivity) {
  const auto pt = block_from_hex("00000000000000000000000000000000");
  Aes128::Block key{};
  const Aes128 a(key);
  key[15] ^= 1;  // one-bit key change
  const Aes128 b(key);
  const auto ca = a.encrypt(pt);
  const auto cb = b.encrypt(pt);
  EXPECT_NE(ca, cb);
  // Avalanche: roughly half the 128 output bits should differ.
  int diff_bits = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    diff_bits += __builtin_popcount(ca[i] ^ cb[i]);
  }
  EXPECT_GT(diff_bits, 30);
  EXPECT_LT(diff_bits, 98);
}

TEST(Aes128, PlaintextAvalanche) {
  const Aes128 aes(block_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Aes128::Block pt{};
  const auto c0 = aes.encrypt(pt);
  pt[0] ^= 0x80;
  const auto c1 = aes.encrypt(pt);
  int diff_bits = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    diff_bits += __builtin_popcount(c0[i] ^ c1[i]);
  }
  EXPECT_GT(diff_bits, 30);
  EXPECT_LT(diff_bits, 98);
}

TEST(Aes128, EncryptIsDeterministic) {
  const Aes128 aes(block_from_hex("000102030405060708090a0b0c0d0e0f"));
  const auto pt = block_from_hex("00112233445566778899aabbccddeeff");
  EXPECT_EQ(aes.encrypt(pt), aes.encrypt(pt));
}

}  // namespace
}  // namespace ibsec::crypto
