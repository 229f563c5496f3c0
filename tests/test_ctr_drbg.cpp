// AES-CTR DRBG: a pinned known-answer stream, determinism, seed
// separation, output stream statistics, and forward-security (update)
// behaviour.
#include <gtest/gtest.h>

#include <set>

#include "common/hex.h"
#include "crypto/ctr_drbg.h"

namespace ibsec::crypto {
namespace {

// The raw stream, byte for byte, as the scalar AES kernel produced it
// before any other kernel existed. Every key in the fabric is drawn from
// this stream, so a kernel or a refactor that moves one byte of it moves
// every golden. Draw sizes 1, 8, 16, 17 and 64 cover a partial block, a
// whole one, a block and a byte, and four blocks; each draw ends in the
// key/counter update.
struct StreamKat {
  const char* draw1;
  const char* draw8;
  const char* draw16;
  const char* draw17;
  const char* draw64;
  std::uint64_t next_u64;
};

void expect_stream(CtrDrbg& drbg, const StreamKat& want) {
  EXPECT_EQ(to_hex(drbg.generate(1)), want.draw1);
  EXPECT_EQ(to_hex(drbg.generate(8)), want.draw8);
  EXPECT_EQ(to_hex(drbg.generate(16)), want.draw16);
  EXPECT_EQ(to_hex(drbg.generate(17)), want.draw17);
  EXPECT_EQ(to_hex(drbg.generate(64)), want.draw64);
  EXPECT_EQ(drbg.next_u64(), want.next_u64);
}

TEST(CtrDrbg, KnownAnswerStream) {
  CtrDrbg from_word(std::uint64_t{2005});
  expect_stream(
      from_word,
      {"cb", "b98703d29c457354", "4fc223082eefd07bf759fafdc17011f7",
       "6223321174fb38369797d9962beba32720",
       "7c8795523f7940dacfcbd7522934c35cd8b406ecb1bc01401aaf08538e384f9e"
       "efec583616af0411da5a0f3df2bd244c6a055aac0cbcc73ea237f5d354a7fc7b",
       0x90aa51da932de38eull});

  // A 20-byte seed: zero-padded to 32, so it also covers the padding.
  std::vector<std::uint8_t> seed;
  for (int i = 0; i < 20; ++i) {
    seed.push_back(static_cast<std::uint8_t>(0xA0 + 3 * i));
  }
  CtrDrbg from_bytes{std::span<const std::uint8_t>(seed)};
  expect_stream(
      from_bytes,
      {"c9", "cd7f57357633f952", "38eedd814c48ec75a91f5e2816968a3a",
       "57ff00768b0c92bb9572074da8d33cc455",
       "41c40290bf0306102be4aeb90280237cd40e4655875d84d1a06982b007ab3fdd"
       "4a07ed1f4f7f3a08466cc092833cddcfefd5ed802aba1ab4bb1f394142a6bd48",
       0xa01a942295f6b4f6ull});
}

TEST(CtrDrbg, DeterministicForSameSeed) {
  CtrDrbg a(std::uint64_t{12345}), b(std::uint64_t{12345});
  EXPECT_EQ(a.generate(64), b.generate(64));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CtrDrbg, DifferentSeedsDiverge) {
  CtrDrbg a(std::uint64_t{1}), b(std::uint64_t{2});
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(CtrDrbg, ByteSeedAndPadding) {
  const std::vector<std::uint8_t> short_seed = {1, 2, 3};
  std::vector<std::uint8_t> padded = short_seed;
  padded.resize(32, 0);
  CtrDrbg a{std::span<const std::uint8_t>(short_seed)};
  CtrDrbg b{std::span<const std::uint8_t>(padded)};
  EXPECT_EQ(a.generate(16), b.generate(16));
}

TEST(CtrDrbg, SequentialCallsProduceFreshOutput) {
  CtrDrbg drbg(std::uint64_t{7});
  const auto first = drbg.generate(16);
  const auto second = drbg.generate(16);
  EXPECT_NE(first, second);
}

TEST(CtrDrbg, RequestSizesAroundBlockBoundary) {
  // Non-multiple-of-16 requests must not lose or duplicate bytes: a fresh
  // generator asked for n bytes gives a prefix-consistent stream only within
  // one call (update() breaks the stream between calls by design), so we
  // check sizes independently for self-consistency.
  for (std::size_t n : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 100u}) {
    CtrDrbg a(std::uint64_t{99}), b(std::uint64_t{99});
    EXPECT_EQ(a.generate(n), b.generate(n)) << n;
    EXPECT_EQ(a.generate(n).size(), n);
  }
}

TEST(CtrDrbg, OutputLooksUniform) {
  CtrDrbg drbg(std::uint64_t{31337});
  const auto bytes = drbg.generate(1 << 16);
  std::array<int, 256> counts{};
  for (auto b : bytes) ++counts[b];
  // Expected count 256 per value; allow generous slack (~6 sigma).
  for (int c : counts) {
    EXPECT_GT(c, 150);
    EXPECT_LT(c, 370);
  }
}

TEST(CtrDrbg, NextU64Unbiased) {
  CtrDrbg drbg(std::uint64_t{5});
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(drbg.next_u64());
  EXPECT_EQ(seen.size(), 1000u);  // collisions astronomically unlikely
}

}  // namespace
}  // namespace ibsec::crypto
