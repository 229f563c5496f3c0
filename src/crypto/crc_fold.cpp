#include "crypto/crc_fold.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ibsec::crypto::detail {

#if defined(__x86_64__)

namespace {

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Moves lane `x` D bits further along the message: each 64-bit half times
// its 33-bit multiplier (`keys` low qword for the first half, high qword
// for the second), XORed into one 128-bit value congruent to x * x^D mod P.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i x,
                                                      __m128i keys) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, keys, 0x00),
                       _mm_clmulepi64_si128(x, keys, 0x11));
}

}  // namespace

__attribute__((target("pclmul"))) std::span<const std::uint8_t>
crc_fold_pclmul(std::uint32_t state, std::span<const std::uint8_t> data,
                const CrcFoldKeys& keys,
                std::span<std::uint8_t, 16> residue) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(keys.k512_hi),
                                      static_cast<long long>(keys.k512_lo));
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(keys.k128_hi),
                                      static_cast<long long>(keys.k128_lo));

  // The running state is the CRC of everything before `data`: XORed onto
  // the first bytes, it stands in for that prefix.
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(fold(x0, k512), load(p));
    x1 = _mm_xor_si128(fold(x1, k512), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k512), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k512), load(p + 48));
  }
  x0 = _mm_xor_si128(fold(x0, k128), x1);
  x0 = _mm_xor_si128(fold(x0, k128), x2);
  x0 = _mm_xor_si128(fold(x0, k128), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = _mm_xor_si128(fold(x0, k128), load(p));
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(residue.data()), x0);
  return {p, n};
}

#endif  // __x86_64__

}  // namespace ibsec::crypto::detail
