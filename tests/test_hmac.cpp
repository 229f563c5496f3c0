// HMAC-MD5 / HMAC-SHA1 against the RFC 2202 test vectors, plus keying
// properties (long-key pre-hashing, truncation).
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/hmac.h"
#include "support/from_hex.h"

namespace ibsec::crypto {
namespace {

template <typename Digest>
std::string hex(const Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

struct HmacVector {
  const char* key_hex;   // key as hex
  const char* data;      // message as ASCII, or one hex byte if repeat > 0
  int repeat;            // if > 0: message is `data` (hex byte) x repeat
  const char* md5_mac;
  const char* sha1_mac;
};

// Names each case by its SHA-1 MAC: the struct's raw bytes hold string
// pointers, so gtest's default name would change with every run under ASLR.
void PrintTo(const HmacVector& v, std::ostream* os) { *os << v.sha1_mac; }

class HmacRfc2202 : public ::testing::TestWithParam<HmacVector> {};

TEST_P(HmacRfc2202, MatchesSpecVector) {
  const auto& v = GetParam();
  const auto key = from_hex(v.key_hex);
  std::vector<std::uint8_t> data;
  if (v.repeat > 0) {
    data.assign(static_cast<std::size_t>(v.repeat), from_hex(v.data).at(0));
  } else {
    data = ascii_bytes(v.data);
  }
  if (v.md5_mac) {
    // RFC 2202 MD5 cases use a 16-byte 0x0b/0xaa key where SHA-1 uses 20.
    auto md5_key = key;
    if (md5_key.size() == 20 &&
        (md5_key[0] == 0x0b || md5_key[0] == 0xaa) &&
        md5_key[0] == md5_key[19]) {
      md5_key.resize(16);
    }
    EXPECT_EQ(hex(HmacMd5::mac(md5_key, data)), v.md5_mac);
  }
  if (v.sha1_mac) {
    EXPECT_EQ(hex(HmacSha1::mac(key, data)), v.sha1_mac);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, HmacRfc2202,
    ::testing::Values(
        // Case 1: key = 0x0b * (16 for MD5 / 20 for SHA1), data "Hi There"
        HmacVector{"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "Hi There", 0,
                   "9294727a3638bb1c13f48ef8158bfc9d",
                   "b617318655057264e28bc0b6fb378c8ef146be00"},
        // Case 2: key "Jefe" (4a656665), data "what do ya want for nothing?"
        HmacVector{"4a656665", "what do ya want for nothing?", 0,
                   "750c783e6ab0b503eaa86e310a5db738",
                   "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
        // Case 3: key = 0xaa * (16/20), data = 0xdd * 50
        HmacVector{"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "dd", 50,
                   "56be34521d144c88dbb8c733f0e8b3f6",
                   "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
        // Case 4: key = 0102..19, data = 0xcd * 50
        HmacVector{"0102030405060708090a0b0c0d0e0f10111213141516171819", "cd",
                   50, "697eaf0aca3a3aea3a75164746ffaa79",
                   "4c9007f4026250c6bc8414f9bf50c86c2d7235da"}));

TEST(Hmac, LongKeyIsPreHashed) {
  // RFC 2104: keys longer than the block size are replaced by their hash.
  Rng rng(301);
  std::vector<std::uint8_t> long_key(100);
  for (auto& b : long_key) b = static_cast<std::uint8_t>(rng.next_u32());
  const auto hashed_key = Sha1::hash(long_key);
  const auto msg = ascii_bytes("equivalence test");
  EXPECT_EQ(HmacSha1::mac(long_key, msg),
            HmacSha1::mac(std::span<const std::uint8_t>(hashed_key.data(),
                                                        hashed_key.size()),
                          msg));
}

TEST(Hmac, ZeroPaddedShortKeyEquivalence) {
  // A key zero-padded to the block size is the same HMAC key.
  const auto key = ascii_bytes("short");
  std::vector<std::uint8_t> padded(key);
  padded.resize(64, 0);
  const auto msg = ascii_bytes("message");
  EXPECT_EQ(HmacMd5::mac(key, msg), HmacMd5::mac(padded, msg));
}

TEST(Hmac, Truncated32IsLeftmostBytes) {
  const auto key = ascii_bytes("0123456789abcdef");
  const auto msg = ascii_bytes("truncate me");
  const auto full = HmacSha1::mac(key, msg);
  const std::uint32_t expected = static_cast<std::uint32_t>(full[0]) << 24 |
                                 static_cast<std::uint32_t>(full[1]) << 16 |
                                 static_cast<std::uint32_t>(full[2]) << 8 |
                                 full[3];
  EXPECT_EQ(HmacSha1::truncated_tag32(key, msg), expected);
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const auto msg = ascii_bytes("same message");
  const auto a = HmacSha1::mac(ascii_bytes("key-A"), msg);
  const auto b = HmacSha1::mac(ascii_bytes("key-B"), msg);
  EXPECT_NE(a, b);
}

TEST(Hmac, MessageSensitivity) {
  const auto key = ascii_bytes("fixed key");
  const auto a = HmacMd5::mac(key, ascii_bytes("message one"));
  const auto b = HmacMd5::mac(key, ascii_bytes("message two"));
  EXPECT_NE(a, b);
}

TEST(Hmac, IncrementalMatchesOneShot) {
  const auto key = ascii_bytes("incremental-key!");
  Rng rng(302);
  std::vector<std::uint8_t> data(500);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());

  HmacSha1 h(key);
  h.update(std::span(data).first(100));
  h.update(std::span(data).subspan(100, 250));
  h.update(std::span(data).subspan(350));
  EXPECT_EQ(h.finalize(), HmacSha1::mac(key, data));
}

TEST(Hmac, ResetAllowsReuseWithSameKey) {
  const auto key = ascii_bytes("reusable");
  HmacMd5 h(key);
  h.update(ascii_bytes("first"));
  (void)h.finalize();
  h.reset();
  h.update(ascii_bytes("second"));
  EXPECT_EQ(h.finalize(), HmacMd5::mac(key, ascii_bytes("second")));
}

}  // namespace
}  // namespace ibsec::crypto
