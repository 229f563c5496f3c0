// Tests for CRC-32 (ICRC polynomial) and CRC-16-IBA (VCRC polynomial):
// published check values, incremental/one-shot equivalence, and differential
// testing of both kernels (slice-by-8 table, PCLMULQDQ folding) against the
// bit/byte-at-a-time references.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/cpu.h"
#include "crypto/crc16.h"
#include "crypto/crc32.h"

namespace ibsec::crypto {
namespace {

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32(ascii_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, SingleByteKnownValues) {
  // crc32 of a single 0x00 byte and single 0xFF byte (well-known values).
  const std::uint8_t zero = 0x00;
  const std::uint8_t ff = 0xFF;
  EXPECT_EQ(crc32({&zero, 1}), 0xD202EF8Du);
  EXPECT_EQ(crc32({&ff, 1}), 0xFF000000u);
}

TEST(Crc32, MatchesReferenceImplementation) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.uniform(512);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    EXPECT_EQ(crc32(data), crc32_reference(data)) << "len=" << len;
  }
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(102);
  std::vector<std::uint8_t> data(1000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{63}, std::size_t{500},
                            std::size_t{999}, std::size_t{1000}}) {
    Crc32 inc;
    inc.update(std::span(data).first(split));
    inc.update(std::span(data).subspan(split));
    EXPECT_EQ(inc.value(), crc32(data)) << "split=" << split;
  }
}

TEST(Crc32, ResetRestoresInitialState) {
  Crc32 c;
  c.update(ascii_bytes("junk"));
  c.reset();
  c.update(ascii_bytes("123456789"));
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  Rng rng(103);
  std::vector<std::uint8_t> data(128);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  const std::uint32_t original = crc32(data);
  // CRC-32 detects every single-bit error within its burst guarantees.
  for (std::size_t byte = 0; byte < data.size(); byte += 13) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = data;
      mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc32(mutated), original);
    }
  }
}

TEST(Crc32, ValueIsPureFunctionOfPrefix) {
  // value() can be read mid-stream without disturbing further updates.
  Crc32 c;
  c.update(ascii_bytes("1234"));
  const std::uint32_t mid = c.value();
  EXPECT_EQ(mid, crc32(ascii_bytes("1234")));
  c.update(ascii_bytes("56789"));
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc16Iba, StandardCheckValue) {
  // CRC-16-IBA of "123456789" (0x100B, init/xorout 0xFFFF, reflected).
  EXPECT_EQ(crc16_iba(ascii_bytes("123456789")), 0x0A3Du);
  EXPECT_EQ(crc16_iba_reference(ascii_bytes("123456789")), 0x0A3Du);
}

TEST(Crc16Iba, MatchesReferenceImplementation) {
  Rng rng(104);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.uniform(300);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
    EXPECT_EQ(crc16_iba(data), crc16_iba_reference(data)) << "len=" << len;
  }
}

TEST(Crc16Iba, EmptyInput) {
  EXPECT_EQ(crc16_iba({}), 0x0000u);
}

TEST(Crc16Iba, DetectsSingleBitFlips) {
  Rng rng(105);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  const std::uint16_t original = crc16_iba(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = data;
      mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc16_iba(mutated), original);
    }
  }
}

TEST(Crc16Iba, DistinctFromCrc32Semantics) {
  // Sanity: the two CRCs disagree (different polynomials/widths), so the
  // packet pipeline cannot accidentally swap them without tests noticing.
  const auto data = ascii_bytes("123456789");
  EXPECT_NE(static_cast<std::uint32_t>(crc16_iba(data)), crc32(data));
}

// Property sweep: appending bytes always changes the stream state in a way
// consistent between implementations, across many lengths including the
// slice-by-8 boundary cases and the 64-byte switch to the folding kernel.
class CrcLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrcLengthSweep, SliceBy8AgreesWithReferenceAtBoundary) {
  const std::size_t len = GetParam();
  Rng rng(106 + static_cast<std::uint64_t>(len));
  std::vector<std::uint8_t> data(len);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  EXPECT_EQ(crc32(data), crc32_reference(data));
  EXPECT_EQ(crc16_iba(data), crc16_iba_reference(data));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, CrcLengthSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15,
                                           16, 17, 23, 24, 25, 31, 32, 33, 63,
                                           64, 65, 127, 128, 129, 1023, 1024,
                                           1025));

// --- kernels, called directly -------------------------------------------------

// Each polynomial's raw state type, init/xorout constant, reference and
// kernels, so one set of checks covers both.
struct Crc32Poly {
  using State = std::uint32_t;
  static constexpr State kInit = 0xFFFFFFFFu;
  static constexpr auto reference = &crc32_reference;
  static constexpr auto scalar = &detail::crc32_update_scalar;
#if defined(__x86_64__)
  static constexpr auto pclmul = &detail::crc32_update_pclmul;
#endif
  using Stream = Crc32;
};

struct Crc16Poly {
  using State = std::uint16_t;
  static constexpr State kInit = 0xFFFFu;
  static constexpr auto reference = &crc16_iba_reference;
  static constexpr auto scalar = &detail::crc16_iba_update_scalar;
#if defined(__x86_64__)
  static constexpr auto pclmul = &detail::crc16_iba_update_pclmul;
#endif
  using Stream = Crc16Iba;
};

template <class P>
using Kernel = typename P::State (*)(typename P::State,
                                     std::span<const std::uint8_t>);

template <class P>
typename P::State final_value(typename P::State state) {
  return static_cast<typename P::State>(state ^ P::kInit);
}

constexpr std::size_t kMaxLength = 1100;

const std::vector<std::uint8_t>& kernel_data() {
  static const std::vector<std::uint8_t> data = [] {
    Rng rng(3501);
    std::vector<std::uint8_t> bytes(kMaxLength + 16);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
    return bytes;
  }();
  return data;
}

// Every length 0..kMaxLength at every start offset within 16 bytes, so the
// 64- and 16-byte folds, the residue and the tail all meet unaligned input.
template <class P>
void expect_matches_reference_everywhere(Kernel<P> kernel) {
  const auto& data = kernel_data();
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= kMaxLength; ++len) {
      const auto message = std::span(data).subspan(offset, len);
      const auto got = final_value<P>(kernel(P::kInit, message));
      if (got != P::reference(message)) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
        return;
      }
    }
  }
}

// Two-piece updates cut at every offset mod 64 from either end: a short
// scalar head hands its state to a long `kernel` update, and a long
// `kernel` head hands its state to a short scalar tail.
template <class P>
void expect_state_hands_over(Kernel<P> kernel) {
  const auto message = std::span(kernel_data()).first(kMaxLength);
  const auto want = P::reference(message);
  for (std::size_t cut = 0; cut < 64; ++cut) {
    const auto head = P::scalar(P::kInit, message.first(cut));
    EXPECT_EQ(final_value<P>(kernel(head, message.subspan(cut))), want)
        << "scalar head of " << cut;
    const std::size_t long_cut = message.size() - cut;
    const auto long_head = kernel(P::kInit, message.first(long_cut));
    EXPECT_EQ(final_value<P>(P::scalar(long_head, message.subspan(long_cut))),
              want)
        << "scalar tail of " << cut;
  }
}

TEST(CrcKernels, ScalarMatchesReferenceAtEveryLengthAndOffset) {
  expect_matches_reference_everywhere<Crc32Poly>(Crc32Poly::scalar);
  expect_matches_reference_everywhere<Crc16Poly>(Crc16Poly::scalar);
}

TEST(CrcKernels, PclmulMatchesReferenceAtEveryLengthAndOffset) {
#if defined(__x86_64__)
  if (!cpu().pclmul) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ; the CRCs run the table kernel";
  }
  expect_matches_reference_everywhere<Crc32Poly>(Crc32Poly::pclmul);
  expect_matches_reference_everywhere<Crc16Poly>(Crc16Poly::pclmul);
#else
  GTEST_SKIP() << "the PCLMULQDQ kernel is built for x86-64 only";
#endif
}

TEST(CrcKernels, PclmulAndScalarHandStateOverAtEveryCut) {
#if defined(__x86_64__)
  if (!cpu().pclmul) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ; the CRCs run the table kernel";
  }
  expect_state_hands_over<Crc32Poly>(Crc32Poly::pclmul);
  expect_state_hands_over<Crc16Poly>(Crc16Poly::pclmul);
#else
  GTEST_SKIP() << "the PCLMULQDQ kernel is built for x86-64 only";
#endif
}

// The public classes, whatever kernel this CPU dispatched: two updates cut
// at every offset mod 64 from either end.
template <class P>
void expect_stream_matches_reference_at_every_cut() {
  const auto message = std::span(kernel_data()).first(kMaxLength);
  const auto want = P::reference(message);
  for (std::size_t cut = 0; cut < 64; ++cut) {
    for (const std::size_t at : {cut, message.size() - cut}) {
      typename P::Stream stream;
      stream.update(message.first(at));
      stream.update(message.subspan(at));
      EXPECT_EQ(stream.value(), want) << "cut at " << at;
    }
  }
}

TEST(CrcKernels, DispatchedStreamsMatchReferenceAtEveryCut) {
  expect_stream_matches_reference_at_every_cut<Crc32Poly>();
  expect_stream_matches_reference_at_every_cut<Crc16Poly>();
}

}  // namespace
}  // namespace ibsec::crypto
