// RSA keygen / encrypt / decrypt: primality testing, roundtrips at several
// modulus sizes, padding robustness, and failure modes (wrong key, tampered
// ciphertext).
#include <gtest/gtest.h>

#include "bignum_testing.h"
#include "common/alloc_probe.h"
#include "common/hex.h"
#include "crypto/rsa.h"

namespace ibsec::crypto {
namespace {

TEST(Primality, KnownSmallPrimesAndComposites) {
  CtrDrbg drbg(std::uint64_t{701});
  for (std::uint32_t p : {2u, 3u, 5u, 7u, 97u, 251u, 65537u}) {
    EXPECT_TRUE(is_probable_prime(BigInt(p), drbg)) << p;
  }
  for (std::uint32_t c : {0u, 1u, 4u, 9u, 15u, 91u, 561u, 65535u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(c), drbg)) << c;
  }
}

TEST(Primality, CarmichaelNumbersRejected) {
  // Carmichael numbers fool Fermat tests; Miller-Rabin must reject them.
  CtrDrbg drbg(std::uint64_t{702});
  for (std::uint32_t carmichael : {561u, 1105u, 1729u, 2465u, 2821u, 6601u}) {
    EXPECT_FALSE(is_probable_prime(BigInt(carmichael), drbg)) << carmichael;
  }
}

TEST(Primality, LargeKnownPrime) {
  // 2^127 - 1 is a Mersenne prime.
  const BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  CtrDrbg drbg(std::uint64_t{703});
  EXPECT_TRUE(is_probable_prime(m127, drbg));
  EXPECT_FALSE(is_probable_prime(m127 - BigInt(2), drbg));
}

TEST(GeneratePrime, ExactBitLengthAndPrimality) {
  CtrDrbg drbg(std::uint64_t{704});
  for (std::size_t bits : {64u, 128u, 256u}) {
    const BigInt p = generate_prime(bits, drbg);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(is_probable_prime(p, drbg));
  }
}

TEST(Rsa, KeygenProducesConsistentPair) {
  CtrDrbg drbg(std::uint64_t{705});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  EXPECT_EQ(kp.public_key.n.bit_length(), 512u);
  EXPECT_EQ(kp.public_key.n, kp.private_key.p * kp.private_key.q);
  // e*d == 1 mod phi.
  const BigInt phi = (kp.private_key.p - BigInt(1)) *
                     (kp.private_key.q - BigInt(1));
  EXPECT_EQ((kp.public_key.e * kp.private_key.d) % phi, BigInt(1));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  CtrDrbg drbg(std::uint64_t{706});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  const auto secret = ascii_bytes("16-byte-secret!!");
  const auto ct = rsa_encrypt(kp.public_key, secret, drbg);
  EXPECT_EQ(ct.size(), kp.public_key.modulus_bytes());
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
}

TEST(Rsa, RandomPaddingMakesCiphertextsDistinct) {
  CtrDrbg drbg(std::uint64_t{707});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  const auto secret = ascii_bytes("same plaintext");
  const auto c1 = rsa_encrypt(kp.public_key, secret, drbg);
  const auto c2 = rsa_encrypt(kp.public_key, secret, drbg);
  EXPECT_NE(c1, c2);  // type-2 padding randomizes
  EXPECT_EQ(rsa_decrypt(kp.private_key, c1), rsa_decrypt(kp.private_key, c2));
}

TEST(Rsa, WrongKeyFailsCleanly) {
  CtrDrbg drbg(std::uint64_t{708});
  const RsaKeyPair kp1 = rsa_generate(512, drbg);
  const RsaKeyPair kp2 = rsa_generate(512, drbg);
  const auto ct = rsa_encrypt(kp1.public_key, ascii_bytes("secret"), drbg);
  const auto pt = rsa_decrypt(kp2.private_key, ct);
  // Either padding check fails (expected) or decrypt yields garbage != secret.
  if (pt.has_value()) {
    EXPECT_NE(*pt, ascii_bytes("secret"));
  } else {
    SUCCEED();
  }
}

TEST(Rsa, TamperedCiphertextFails) {
  CtrDrbg drbg(std::uint64_t{709});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  auto ct = rsa_encrypt(kp.public_key, ascii_bytes("secret"), drbg);
  ct[ct.size() / 2] ^= 0x01;
  const auto pt = rsa_decrypt(kp.private_key, ct);
  if (pt.has_value()) {
    EXPECT_NE(*pt, ascii_bytes("secret"));
  } else {
    SUCCEED();
  }
}

TEST(Rsa, WrongLengthCiphertextRejected) {
  CtrDrbg drbg(std::uint64_t{710});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  std::vector<std::uint8_t> bogus(kp.public_key.modulus_bytes() - 1, 0x42);
  EXPECT_FALSE(rsa_decrypt(kp.private_key, bogus).has_value());
}

TEST(Rsa, PlaintextTooLongThrows) {
  CtrDrbg drbg(std::uint64_t{711});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  std::vector<std::uint8_t> too_long(kp.public_key.modulus_bytes() - 10, 0x11);
  EXPECT_THROW((void)rsa_encrypt(kp.public_key, too_long, drbg),
               std::invalid_argument);
}

TEST(Rsa, MaximumLengthPlaintext) {
  CtrDrbg drbg(std::uint64_t{712});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  std::vector<std::uint8_t> max_pt(kp.public_key.modulus_bytes() - 11, 0xA5);
  const auto ct = rsa_encrypt(kp.public_key, max_pt, drbg);
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, max_pt);
}

TEST(Rsa, EmptyPlaintextRoundTrip) {
  CtrDrbg drbg(std::uint64_t{713});
  const RsaKeyPair kp = rsa_generate(512, drbg);
  const auto ct = rsa_encrypt(kp.public_key, {}, drbg);
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_TRUE(pt->empty());
}

// --- known answers -----------------------------------------------------------
// Key generation must draw from the DRBG with the same sizes in the same
// order forever: the keys, every wrapped blob and the export goldens depend
// on it. Each vector pins the primes, modulus and private exponent, one
// ciphertext of a fixed secret, and the next 16 DRBG bytes after both calls
// (so a keygen that consumed the stream differently fails here even if it
// happened to find the same primes). The first seed is node 0's key seed in
// a Scenario with seed 2005.
struct RsaKnownAnswer {
  std::uint64_t seed;
  std::size_t bits;
  const char* p;
  const char* q;
  const char* n;
  const char* d;
  const char* ciphertext;
  const char* next_drbg;
};

constexpr RsaKnownAnswer kRsaKnownAnswers[] = {
    {0x1ba5ec07d5ULL, 256,
     "f98478ebf377462dfd7bd1ac4c83d4ff",
     "efebd30d493859b95dab8f3253b9b171",
     "e9d887346ba729927de0c7eaabb7c10dbd0b918650e1e0206100c21685bc538f",
     "e19c4b4db2f353338788dfb8343613e5122243270aae34b20f479bf92ecc78a1",
     "709a92d08ca032e456806ce7a1f3e6a783ac5c5fdea9e1ac152b208c19d4c09b",
     "c47d2322e3d0213071c43164881597b4"},
    {0x7ULL, 256,
     "cb263a71454e7bdc3053d35e80f98b9d",
     "f9fb3b5b3761266c5f4a91e83aafdd15",
     "c65f8c6dab797a317c91a521a6b4d9653ba845cb863071d913c813980451fce1",
     "6aeb36ea2960f91e5110c31b271a148d4a6611175a0ce652f318f00e7985fb11",
     "2af7d4bf42c6b7b54c8b60cebaf2ab71633dfb403bf34c6ffc0cb22dc95321d5",
     "36d2c575fdf042255f2d11034323c969"},
    {0x2aULL, 512,
     "f3839e25d9ce19d9540e96505f57fb9e7ca058f54fa50402315e09f711e5e7d5",
     "e992eb72e6402e83f47ee0c278991d3114a636af1faf93a78045dc51ec4a68fd",
     "de2e8bf7c2a146197171b6a2f91e846a828e8d55d9fee96e8c371baac47900f4"
     "14f6481ca94befa604c1c1079afcd80ffd2f0ded8c6b9cfadd49bd0475f6a581",
     "75d5edf9fb49996a0916ac2c873f3e2f570acfbec69d41a495ccec6987463dd0"
     "38fdfb86ee7efa67c3196057e5d2271ebd9c52cde815bb862f46073ae9ed5021",
     "a7435cd0d7e858a5d1fc3b393a3b0e2afaba690a725fdf86ee79c9b693055a4f"
     "e6736dfbd61c35d61b6f5d085805b2a153d0ce0014be0f5e8460374e63e9487a",
     "3c28f056b0b6bbab197fd860af4d1db8"},
    {0x400ULL, 768,
     "f7f503d1accbae19f40031fd7383bc2bc5dd21edc62d68b8f7f290aaefceae63"
     "d028109690561e9f94ae4c37e3fbf115",
     "fa3dc44e18071c1d3abe125ce70fe78c7f0c5915baa2c9148848079378342395"
     "a131b2f6a947a15742355337cbb8cd63",
     "f261193fe68ea2064ad30ba0831fb45389cc147b2d96b4f731205f3a2b8bf4d2"
     "1af5107945cbf3b9117a271db967611fd38204e1a13b74d27eed450b8ba0d4bd"
     "cc99792fe2895f4991646c7c821ca8cb192bebcba0fe7edd2a087af1d8940c1f",
     "5dbb2f088720a187cd67d017429e001e4e2b9dc004e1431a54e52fee4ee8d0c4"
     "6fa855b690474ef942c8fa57845b763317ee8c906bac0e4e01b42b905a67bf8d"
     "63ebab5f7e6b1e2bdc77509cb37b4a97c94e7c41a5b8c41a4e0cf2d662f7f81",
     "40f67651cc862ac942296e604469d1e300485e93c3967d1720d582f8d411738f"
     "6c6c359fe396f644cf40dbb8f6b659ad11842cf7605359bb8c48225730689732"
     "0d265a20e99ae9817e1815acc18846308b716c5f8ea986f32366aec7d8f7e76a",
     "4280f1cfbbc9d8ea9f5c2b5e57730ae9"},
};

TEST(RsaKnownAnswer, KeysCiphertextAndDrbgStreamArePinned) {
  const auto secret = ascii_bytes("16-byte-secret!!");
  for (const RsaKnownAnswer& v : kRsaKnownAnswers) {
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << v.seed << " bits=" << v.bits);
    CtrDrbg drbg(v.seed);
    const RsaKeyPair kp = rsa_generate(v.bits, drbg);
    EXPECT_EQ(bigint_to_hex(kp.private_key.p), v.p);
    EXPECT_EQ(bigint_to_hex(kp.private_key.q), v.q);
    EXPECT_EQ(bigint_to_hex(kp.public_key.n), v.n);
    EXPECT_EQ(bigint_to_hex(kp.private_key.d), v.d);
    EXPECT_EQ(to_hex(rsa_encrypt(kp.public_key, secret, drbg)), v.ciphertext);
    EXPECT_EQ(to_hex(drbg.generate(16)), v.next_drbg);
  }
}

// --- CRT decryption ----------------------------------------------------------

TEST(Rsa, CrtDecryptionEqualsPlainExponentiation) {
  for (std::size_t bits : {256u, 512u, 768u}) {
    SCOPED_TRACE(::testing::Message() << "bits=" << bits);
    CtrDrbg drbg(std::uint64_t{715} + bits);
    const RsaKeyPair kp = rsa_generate(bits, drbg);
    const RsaPrivateKey& key = kp.private_key;
    EXPECT_EQ(key.dp, key.d % (key.p - BigInt(1)));
    EXPECT_EQ(key.dq, key.d % (key.q - BigInt(1)));
    EXPECT_EQ((key.qinv * key.q) % key.p, BigInt(1));
    const BigInt n_minus_1 = key.n - BigInt(1);
    // Random c < n, the extremes, and multiples of each prime (not coprime
    // to n, where CRT must still agree).
    std::vector<BigInt> inputs = {BigInt(), BigInt(1), n_minus_1, key.p,
                                  key.q * BigInt(2)};
    for (int i = 0; i < 6; ++i) {
      inputs.push_back(BigInt::random_below(
          key.n, [&](std::span<std::uint8_t> out) { drbg.generate(out); }));
    }
    for (const BigInt& c : inputs) {
      EXPECT_EQ(rsa_decrypt_raw(key, c), reference_modexp(c, key.d, key.n));
    }
  }
}

TEST(Rsa, LargestModulusRoundTrips) {
  // 2048 bits fills BigInt's capacity: n, and every CRT intermediate, must
  // stay within it.
  CtrDrbg drbg(std::uint64_t{717});
  const RsaKeyPair kp = rsa_generate(2048, drbg);
  EXPECT_EQ(kp.public_key.n.bit_length(), 2048u);
  const auto secret = ascii_bytes("partition-key-01");
  const auto ct = rsa_encrypt(kp.public_key, secret, drbg);
  EXPECT_EQ(rsa_decrypt(kp.private_key, ct), secret);
  const BigInt c = BigInt::from_bytes_be(ct);
  EXPECT_EQ(rsa_decrypt_raw(kp.private_key, c),
            BigInt::modexp(c, kp.private_key.d, kp.public_key.n));
  EXPECT_THROW((void)rsa_generate(2050, drbg), std::invalid_argument);
}

// --- allocations -------------------------------------------------------------
// BigInt keeps its limbs inline, so a keypair, a wrap and an unwrap allocate
// only what they return (a ciphertext or plaintext vector).

TEST(RsaAllocations, KeygenEncryptDecryptStayWithinBudget) {
  CtrDrbg drbg(std::uint64_t{716});
  const auto secret = ascii_bytes("16-byte-secret!!");

  std::uint64_t before = alloc_count();
  const RsaKeyPair kp = rsa_generate(256, drbg);
  const std::uint64_t keygen_allocs = alloc_count() - before;

  before = alloc_count();
  const auto ct = rsa_encrypt(kp.public_key, secret, drbg);
  const std::uint64_t encrypt_allocs = alloc_count() - before;

  before = alloc_count();
  const auto pt = rsa_decrypt(kp.private_key, ct);
  const std::uint64_t decrypt_allocs = alloc_count() - before;

  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
  EXPECT_LE(keygen_allocs, 1000u) << "rsa_generate(256)";
  EXPECT_LE(encrypt_allocs, 8u) << "256-bit rsa_encrypt";
  EXPECT_LE(decrypt_allocs, 8u) << "256-bit rsa_decrypt";
}

class RsaModulusSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaModulusSweep, RoundTripAtSize) {
  CtrDrbg drbg(std::uint64_t{714} + GetParam());
  const RsaKeyPair kp = rsa_generate(GetParam(), drbg);
  const auto secret = ascii_bytes("partition-key-01");
  const auto ct = rsa_encrypt(kp.public_key, secret, drbg);
  const auto pt = rsa_decrypt(kp.private_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, secret);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RsaModulusSweep,
                         ::testing::Values(256, 512, 768));

}  // namespace
}  // namespace ibsec::crypto
