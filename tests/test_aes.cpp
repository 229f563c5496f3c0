// AES-128 against the FIPS 197 appendix vectors plus in-place, key and
// plaintext diffusion properties, then each kernel on its own: the
// byte-wise reference and, where the CPU has it, AES-NI.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/cpu.h"
#include "support/from_hex.h"

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

// --- The kernels, called directly -------------------------------------------

using ExpandFn = void (*)(Aes128::Key, Aes128::Schedule&);

struct Fips197Vector {
  const char* key;
  const char* plaintext;
  const char* ciphertext;
};

// FIPS 197 appendix B (the worked example) and appendix C.1.
constexpr Fips197Vector kFips197[] = {
    {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"},
    {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
};

void expect_fips197(ExpandFn expand, Aes128::EncryptFn encrypt) {
  for (const auto& v : kFips197) {
    const auto key = block_from_hex(v.key);
    Aes128::Schedule schedule;
    expand(key, schedule);
    // Appendix A.1: the last round key of the appendix B key.
    if (std::string_view(v.key) == kFips197[0].key) {
      EXPECT_EQ(to_hex(std::span(schedule).last(16)),
                "d014f9a8c9ee2589e13f0cc8b6630ca6");
    }
    auto block = block_from_hex(v.plaintext);
    encrypt(schedule, block.data(), block.data());
    EXPECT_EQ(to_hex(block), v.ciphertext) << "key " << v.key;
  }
}

Aes128::Block random_block(Rng& rng) {
  Aes128::Block b;
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_u32());
  return b;
}

TEST(AesKernels, ScalarMatchesFips197) {
  expect_fips197(&detail::aes128_expand_scalar,
                 &detail::aes128_encrypt_scalar);
}

TEST(AesKernels, AesNiMatchesFips197) {
#if defined(__x86_64__)
  if (!cpu().aes_ni) {
    GTEST_SKIP() << "this CPU lacks AES-NI; Aes128 runs the scalar kernel";
  }
  expect_fips197(&detail::aes128_expand_ni, &detail::aes128_encrypt_ni);
#else
  GTEST_SKIP() << "the AES-NI kernel is built for x86-64 only";
#endif
}

TEST(AesKernels, ExpansionsGiveByteEqualSchedules) {
#if defined(__x86_64__)
  if (!cpu().aes_ni) {
    GTEST_SKIP() << "this CPU lacks AES-NI; Aes128 runs the scalar kernel";
  }
  Rng rng(197);
  for (int i = 0; i < 1000; ++i) {
    const auto key = random_block(rng);
    Aes128::Schedule scalar, ni;
    detail::aes128_expand_scalar(key, scalar);
    detail::aes128_expand_ni(key, ni);
    ASSERT_EQ(scalar, ni) << "key " << to_hex(key);
  }
#else
  GTEST_SKIP() << "the AES-NI kernel is built for x86-64 only";
#endif
}

TEST(AesKernels, KernelsAgreeOverChainedBlocksAndInPlace) {
#if defined(__x86_64__)
  if (!cpu().aes_ni) {
    GTEST_SKIP() << "this CPU lacks AES-NI; Aes128 runs the scalar kernel";
  }
  // Each ciphertext is the next plaintext, and every 1,000 blocks the last
  // ciphertext re-keys both kernels, so a disagreement anywhere propagates
  // to the end. The scalar side encrypts into a second buffer, the AES-NI
  // side in place.
  Rng rng(2005);
  Aes128::Schedule schedule;
  detail::aes128_expand_scalar(random_block(rng), schedule);
  Aes128::Block scalar = random_block(rng);
  Aes128::Block ni = scalar;
  for (int i = 1; i <= 100'000; ++i) {
    Aes128::Block next;
    detail::aes128_encrypt_scalar(schedule, scalar.data(), next.data());
    detail::aes128_encrypt_ni(schedule, ni.data(), ni.data());
    scalar = next;
    ASSERT_EQ(scalar, ni) << "block " << i;
    if (i % 1000 == 0) detail::aes128_expand_ni(ni, schedule);
  }
#else
  GTEST_SKIP() << "the AES-NI kernel is built for x86-64 only";
#endif
}

}  // namespace
}  // namespace ibsec::crypto
