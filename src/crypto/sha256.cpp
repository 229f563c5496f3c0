#include "crypto/sha256.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "crypto/cpu.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ibsec::crypto {
namespace {

// First 64 primes, for deriving the round constants.
constexpr std::array<int, 64> kPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,
    43,  47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101,
    103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
    173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
    241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311};

// First 32 bits of the fractional part of x, computed in extended
// precision (long double has a >= 64-bit mantissa on x86, ample for 32
// exact fraction bits).
std::uint32_t frac_bits(long double x) {
  const long double frac = x - std::floor(x);
  return static_cast<std::uint32_t>(
      std::floor(frac * 4294967296.0L));  // * 2^32
}

struct Constants {
  std::array<std::uint32_t, 64> k;  // frac(cbrt(prime_i))
  std::array<std::uint32_t, 8> h;   // frac(sqrt(prime_i))
};

Constants derive_constants() {
  Constants c{};
  for (int i = 0; i < 64; ++i) {
    c.k[static_cast<std::size_t>(i)] =
        frac_bits(std::cbrt(static_cast<long double>(kPrimes[i])));
  }
  for (int i = 0; i < 8; ++i) {
    c.h[static_cast<std::size_t>(i)] =
        frac_bits(std::sqrt(static_cast<long double>(kPrimes[i])));
  }
  return c;
}

const Constants kConst = derive_constants();

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

using BlocksFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

BlocksFn pick_kernel() {
#if defined(__x86_64__)
  if (cpu().sha_ni) return &detail::sha256_blocks_shani;
#endif
  return &detail::sha256_blocks_scalar;
}

/// The kernel this CPU runs, chosen on first use and fixed for the process.
void compress(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) {
  static const BlocksFn kernel = pick_kernel();
  kernel(state, data, blocks);
}

}  // namespace

namespace detail {

void sha256_blocks_scalar(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 =
          h + s1 + ch + kConst.k[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// The SHA extensions keep the chaining value as two vectors, ABEF and CDGH
// (lane 3 first), and run two rounds per sha256rnds2 with W+K for the pair
// in the low 64 bits. Each 4-round group i adds K[4i..4i+3] to message
// words W[4i..4i+3]; msg1/msg2 extend the schedule four words at a time in
// a ring of four vectors, so w[i & 3] always holds words 4i..4i+3.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    }
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      const __m128i wk = _mm_add_epi32(
          w[i & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kConst.k.data() + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (i < 12) {
        // W[4i+16..4i+19] from W[4i..4i+15]: msg1 adds sigma0 terms, the
        // alignr supplies W[t-7], msg2 adds the sigma1 terms.
        const __m128i t = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]),
            _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
        w[i & 3] = _mm_sha256msg2_epu32(t, w[(i + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

}  // namespace detail

void Sha256::reset() {
  state_ = kConst.h;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ < kBlockSize) return;
    compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = (data.size() - offset) / kBlockSize;
  if (blocks > 0) {
    compress(state_.data(), data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha256::Digest Sha256::finalize() {
  // The buffered bytes, 0x80, zeros and the 64-bit big-endian bit length:
  // one block, or two when fewer than 9 bytes are left in this one.
  std::uint8_t tail[2 * kBlockSize] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t blocks = buffered_ < kBlockSize - 8 ? 1 : 2;
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t* len = tail + blocks * kBlockSize - 8;
  store_be32(len, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(len + 4, static_cast<std::uint32_t>(bit_len));
  compress(state_.data(), tail, blocks);
  Digest digest;
  for (int i = 0; i < 8; ++i) {
    store_be32(digest.data() + 4 * i, state_[static_cast<std::size_t>(i)]);
  }
  return digest;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 sha;
  sha.update(data);
  return sha.finalize();
}

}  // namespace ibsec::crypto
