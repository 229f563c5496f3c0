// MD5 (RFC 1321) and SHA-1 (FIPS 180-1) against the specifications' test
// vectors, plus incremental-update equivalence properties.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"

namespace ibsec::crypto {
namespace {

template <typename Digest>
std::string hex(const Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// --- RFC 1321 appendix A.5 test suite ---------------------------------------

struct Md5Vector {
  const char* message;
  const char* digest;
};

// gtest would otherwise name each case after the struct's raw bytes, which
// hold string pointers and so change with every run under ASLR.
void PrintTo(const Md5Vector& v, std::ostream* os) { *os << v.digest; }

class Md5Rfc1321 : public ::testing::TestWithParam<Md5Vector> {};

TEST_P(Md5Rfc1321, MatchesSpecVector) {
  const auto& [message, digest] = GetParam();
  EXPECT_EQ(hex(Md5::hash(ascii_bytes(message))), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Md5Rfc1321,
    ::testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234567"
                  "89",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

// --- FIPS 180-1 / RFC 3174 vectors ------------------------------------------

struct Sha1Vector {
  const char* message;
  const char* digest;
};

void PrintTo(const Sha1Vector& v, std::ostream* os) { *os << v.digest; }

class Sha1Fips : public ::testing::TestWithParam<Sha1Vector> {};

TEST_P(Sha1Fips, MatchesSpecVector) {
  const auto& [message, digest] = GetParam();
  EXPECT_EQ(hex(Sha1::hash(ascii_bytes(message))), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Sha1Fips,
    ::testing::Values(
        Sha1Vector{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        Sha1Vector{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        Sha1Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"}));

TEST(Sha1, MillionAs) {
  // FIPS 180-1 third vector: 10^6 repetitions of 'a'.
  Sha1 sha;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.update(chunk);
  EXPECT_EQ(hex(sha.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Md5, MillionAs) {
  Md5 md5;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) md5.update(chunk);
  EXPECT_EQ(hex(md5.finalize()), "7707d6ae4e027c70eea2a935c2296f21");
}

// --- Streaming properties ----------------------------------------------------

class DigestSplit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DigestSplit, IncrementalMatchesOneShot) {
  const std::size_t split = GetParam();
  Rng rng(200 + static_cast<std::uint64_t>(split));
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  const std::size_t cut = std::min(split, data.size());

  Md5 md5;
  md5.update(std::span(data).first(cut));
  md5.update(std::span(data).subspan(cut));
  EXPECT_EQ(md5.finalize(), Md5::hash(data));

  Sha1 sha;
  sha.update(std::span(data).first(cut));
  sha.update(std::span(data).subspan(cut));
  EXPECT_EQ(sha.finalize(), Sha1::hash(data));
}

// Splits straddle the 64-byte block boundary and the 56-byte padding
// threshold, the two places where streaming implementations break.
INSTANTIATE_TEST_SUITE_P(Splits, DigestSplit,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 127, 128, 200, 300));

TEST(Digests, ResetAllowsReuse) {
  Md5 md5;
  md5.update(ascii_bytes("garbage"));
  md5.reset();
  md5.update(ascii_bytes("abc"));
  EXPECT_EQ(hex(md5.finalize()), "900150983cd24fb0d6963f7d28e17f72");

  Sha1 sha;
  sha.update(ascii_bytes("garbage"));
  sha.reset();
  sha.update(ascii_bytes("abc"));
  EXPECT_EQ(hex(sha.finalize()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Digests, LengthExtensionChangesDigest) {
  // Messages that are prefixes of each other must digest differently
  // (length is folded into the padding).
  const auto d1 = Sha1::hash(ascii_bytes("abc"));
  const std::vector<std::uint8_t> with_nul = {'a', 'b', 'c', '\0'};
  const auto d2 = Sha1::hash(with_nul);
  EXPECT_NE(d1, d2);
}

TEST(Digests, PaddingBoundaryLengths) {
  // 55, 56, 57, 63, 64, 65-byte messages exercise every padding branch; the
  // pairwise-distinct outputs guard against state-reuse bugs.
  std::vector<Md5::Digest> md5_digests;
  std::vector<Sha1::Digest> sha_digests;
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::vector<std::uint8_t> data(len, 0x5A);
    md5_digests.push_back(Md5::hash(data));
    sha_digests.push_back(Sha1::hash(data));
  }
  for (std::size_t i = 0; i < md5_digests.size(); ++i) {
    for (std::size_t j = i + 1; j < md5_digests.size(); ++j) {
      EXPECT_NE(md5_digests[i], md5_digests[j]);
      EXPECT_NE(sha_digests[i], sha_digests[j]);
    }
  }
}

}  // namespace
}  // namespace ibsec::crypto
