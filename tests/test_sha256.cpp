// SHA-256 against the FIPS 180-2 vectors (which also validates the
// derive-the-constants-from-primes approach bit-exactly), plus streaming
// properties, both compression kernels run directly against each other, and
// the HMAC-SHA256 instantiation (RFC 4231) and its key midstates.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/cpu.h"
#include "crypto/hmac.h"
#include "crypto/mac.h"
#include "crypto/sha256.h"

namespace ibsec::crypto {
namespace {

template <typename Digest>
std::string hex(const Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex(Sha256::hash(ascii_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  // FIPS 180-2 test vector #2.
  EXPECT_EQ(hex(Sha256::hash(ascii_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 sha;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.update(chunk);
  EXPECT_EQ(hex(sha.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

class Sha256Split : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Split, IncrementalMatchesOneShot) {
  Rng rng(1600 + static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  const std::size_t cut = std::min(GetParam(), data.size());
  Sha256 sha;
  sha.update(std::span(data).first(cut));
  sha.update(std::span(data).subspan(cut));
  EXPECT_EQ(sha.finalize(), Sha256::hash(data));
}

INSTANTIATE_TEST_SUITE_P(Splits, Sha256Split,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 127,
                                           128, 300));

TEST(Sha256, ResetAllowsReuse) {
  Sha256 sha;
  sha.update(ascii_bytes("junk"));
  sha.reset();
  sha.update(ascii_bytes("abc"));
  EXPECT_EQ(hex(sha.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, PaddingBoundariesDistinct) {
  std::vector<Sha256::Digest> digests;
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    digests.push_back(Sha256::hash(std::vector<std::uint8_t>(len, 0x61)));
  }
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i + 1; j < digests.size(); ++j) {
      EXPECT_NE(digests[i], digests[j]);
    }
  }
}


// --- compression kernels -----------------------------------------------------
// Each kernel is called directly on a message the test pads itself, so the
// scalar reference runs even where Sha256 dispatches to SHA-NI.

using Kernel = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

// FIPS 180-2 section 5.3.2 initial hash value.
constexpr std::array<std::uint32_t, 8> kInitialHash = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Pads `message` (FIPS 180-2 section 5.1.1) and folds it through `kernel`,
// `blocks_per_call` blocks at a time (0: every block in one call).
Sha256::Digest kernel_digest(Kernel kernel,
                             std::span<const std::uint8_t> message,
                             std::size_t blocks_per_call = 0) {
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != Sha256::kBlockSize - 8) {
    padded.push_back(0);
  }
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::array<std::uint32_t, 8> state = kInitialHash;
  const std::size_t blocks = padded.size() / Sha256::kBlockSize;
  const std::size_t step = blocks_per_call == 0 ? blocks : blocks_per_call;
  for (std::size_t done = 0; done < blocks; done += step) {
    kernel(state.data(), padded.data() + done * Sha256::kBlockSize,
           std::min(step, blocks - done));
  }
  Sha256::Digest digest;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      digest[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return digest;
}

// The FIPS 180-2 vectors above, as (message, digest) pairs.
std::vector<std::pair<std::vector<std::uint8_t>, std::string>> spec_vectors() {
  return {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {ascii_bytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {ascii_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::vector<std::uint8_t>(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  return data;
}

constexpr std::size_t kMaxLength = 1100;

TEST(Sha256Kernels, ScalarMatchesSpecVectors) {
  for (const auto& [message, digest] : spec_vectors()) {
    EXPECT_EQ(hex(kernel_digest(&detail::sha256_blocks_scalar, message)),
              digest);
    EXPECT_EQ(hex(kernel_digest(&detail::sha256_blocks_scalar, message, 1)),
              digest);
  }
}

TEST(Sha256Kernels, ScalarMatchesStreamingAtEveryLength) {
  const auto data = random_bytes(kMaxLength, 2604);
  for (std::size_t len = 0; len <= kMaxLength; ++len) {
    const auto message = std::span(data).first(len);
    const Sha256::Digest want =
        kernel_digest(&detail::sha256_blocks_scalar, message, 1);
    EXPECT_EQ(kernel_digest(&detail::sha256_blocks_scalar, message), want)
        << "length " << len;
    EXPECT_EQ(Sha256::hash(message), want) << "length " << len;
    // Three updates whose cuts land on every offset within a block.
    const std::size_t cut1 = len % 67;
    const std::size_t cut2 = cut1 + (len - cut1) / 2;
    Sha256 sha;
    sha.update(message.first(cut1));
    sha.update(message.subspan(cut1, cut2 - cut1));
    sha.update(message.subspan(cut2));
    EXPECT_EQ(sha.finalize(), want) << "length " << len;
  }
}

TEST(Sha256Kernels, ShaNiMatchesScalar) {
#if defined(__x86_64__)
  if (!cpu().sha_ni) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions; Sha256 runs the "
                    "scalar kernel";
  }
  for (const auto& [message, digest] : spec_vectors()) {
    EXPECT_EQ(hex(kernel_digest(&detail::sha256_blocks_shani, message)),
              digest);
    EXPECT_EQ(hex(kernel_digest(&detail::sha256_blocks_shani, message, 1)),
              digest);
  }
  const auto data = random_bytes(kMaxLength, 2605);
  for (std::size_t len = 0; len <= kMaxLength; ++len) {
    const auto message = std::span(data).first(len);
    const Sha256::Digest want =
        kernel_digest(&detail::sha256_blocks_scalar, message);
    EXPECT_EQ(kernel_digest(&detail::sha256_blocks_shani, message), want)
        << "length " << len;
    EXPECT_EQ(kernel_digest(&detail::sha256_blocks_shani, message, 1), want)
        << "length " << len;
    EXPECT_EQ(kernel_digest(&detail::sha256_blocks_shani, message, 3), want)
        << "length " << len;
  }
#else
  GTEST_SKIP() << "the SHA-NI kernel is built for x86-64 only";
#endif
}

// --- HMAC-SHA256 (RFC 4231) --------------------------------------------------

TEST(HmacSha256, JefeVector) {
  // RFC 4231 test case 2: key "Jefe", data "what do ya want for nothing?".
  const auto mac = Hmac<Sha256>::mac(ascii_bytes("Jefe"),
                                     ascii_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Vectors) {
  // RFC 4231 section 4: cases 1, 3, 4, 6 and 7 (case 2 is JefeVector, case
  // 5 tests truncation to 128 bits). Cases 6 and 7 take a 131-byte key,
  // which HMAC hashes first; case 7's data spans three blocks.
  struct Case {
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> data;
    const char* mac;
  };
  std::vector<std::uint8_t> key4(25);
  for (std::size_t i = 0; i < key4.size(); ++i) {
    key4[i] = static_cast<std::uint8_t>(i + 1);
  }
  const std::vector<std::uint8_t> key131(131, 0xaa);
  const Case cases[] = {
      {std::vector<std::uint8_t>(20, 0x0b), ascii_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {std::vector<std::uint8_t>(20, 0xaa), std::vector<std::uint8_t>(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, std::vector<std::uint8_t>(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {key131,
       ascii_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {key131,
       ascii_bytes("This is a test using a larger than block-size key and a "
                   "larger than block-size data. The key needs to be hashed "
                   "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(hex(Hmac<Sha256>::mac(c.key, c.data)), c.mac);
  }
}

TEST(HmacSha256, PropertiesHold) {
  const auto key = ascii_bytes("0123456789abcdef");
  const auto m1 = Hmac<Sha256>::mac(key, ascii_bytes("message one"));
  const auto m2 = Hmac<Sha256>::mac(key, ascii_bytes("message two"));
  EXPECT_NE(m1, m2);
  const auto other = Hmac<Sha256>::mac(ascii_bytes("different key!!!"),
                                       ascii_bytes("message one"));
  EXPECT_NE(m1, other);
  // Truncated tag matches the leftmost bytes.
  const std::uint32_t t32 =
      Hmac<Sha256>::truncated_tag32(key, ascii_bytes("message one"));
  EXPECT_EQ(t32, static_cast<std::uint32_t>(m1[0]) << 24 |
                     static_cast<std::uint32_t>(m1[1]) << 16 |
                     static_cast<std::uint32_t>(m1[2]) << 8 | m1[3]);
}

TEST(HmacSha256, LongKeyPreHashed) {
  std::vector<std::uint8_t> long_key(100, 0x55);
  const auto hashed = Sha256::hash(long_key);
  const auto msg = ascii_bytes("equivalence");
  EXPECT_EQ(Hmac<Sha256>::mac(long_key, msg),
            Hmac<Sha256>::mac(std::span<const std::uint8_t>(hashed.data(),
                                                            hashed.size()),
                              msg));
}

// --- key midstates -----------------------------------------------------------
// Hmac hashes the ipad and opad blocks once per key; a per-packet MAC and a
// reset() Hmac must still equal the textbook one-shot HMAC over
// message || nonce_be.

template <typename Hash>
void expect_midstate_matches_one_shot(AuthAlgorithm alg) {
  Rng rng(4231 + static_cast<std::uint64_t>(alg));
  const auto key = random_bytes(16, rng.next_u64());
  const auto mac = make_mac(alg, key);
  Hmac<Hash> reused(key);
  for (int trial = 0; trial < 40; ++trial) {
    const auto message =
        random_bytes(rng.uniform(kMaxLength + 1), rng.next_u64());
    const std::uint64_t nonce = rng.next_u64();
    std::vector<std::uint8_t> concat = message;
    for (int i = 7; i >= 0; --i) {
      concat.push_back(static_cast<std::uint8_t>(nonce >> (8 * i)));
    }
    const auto want = Hmac<Hash>::mac(key, concat);
    EXPECT_EQ(mac->tag32(message, nonce),
              static_cast<std::uint32_t>(want[0]) << 24 |
                  static_cast<std::uint32_t>(want[1]) << 16 |
                  static_cast<std::uint32_t>(want[2]) << 8 | want[3])
        << to_string(alg) << " trial " << trial;
    reused.reset();
    reused.update(concat);
    EXPECT_EQ(reused.finalize(), want) << to_string(alg) << " trial " << trial;
  }
}

TEST(HmacMidstate, TagEqualsOneShotMacOverMessageAndNonce) {
  expect_midstate_matches_one_shot<Md5>(AuthAlgorithm::kHmacMd5);
  expect_midstate_matches_one_shot<Sha1>(AuthAlgorithm::kHmacSha1);
  expect_midstate_matches_one_shot<Sha256>(AuthAlgorithm::kHmacSha256);
}

}  // namespace
}  // namespace ibsec::crypto
