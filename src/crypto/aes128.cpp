#include "crypto/aes128.h"

#include <algorithm>
#include <cstring>

#include "common/annotations.h"
#include "crypto/cpu.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ibsec::crypto {
namespace {

// GF(2^8) multiply by x (i.e. {02}) modulo the AES polynomial x^8+x^4+x^3+x+1.
constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1B : 0x00));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t result = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) result ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return result;
}

// Builds the S-box from the multiplicative inverse + affine transform, per
// FIPS 197 section 5.1.1, at compile time.
constexpr std::array<std::uint8_t, 256> make_sbox() {
  // Multiplicative inverses via brute force (256*256 products; constexpr-ok).
  std::array<std::uint8_t, 256> inv_table{};
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      if (gmul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)) ==
          1) {
        inv_table[static_cast<std::size_t>(a)] = static_cast<std::uint8_t>(b);
        break;
      }
    }
  }
  std::array<std::uint8_t, 256> sbox{};
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t x = inv_table[static_cast<std::size_t>(i)];
    std::uint8_t y = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const int b = ((x >> bit) & 1) ^ ((x >> ((bit + 4) % 8)) & 1) ^
                    ((x >> ((bit + 5) % 8)) & 1) ^ ((x >> ((bit + 6) % 8)) & 1) ^
                    ((x >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
      y = static_cast<std::uint8_t>(y | (b << bit));
    }
    sbox[static_cast<std::size_t>(i)] = y;
  }
  return sbox;
}

const std::array<std::uint8_t, 256> kSbox = make_sbox();

constexpr std::array<std::uint8_t, 11> kRcon = {0x00, 0x01, 0x02, 0x04,
                                                0x08, 0x10, 0x20, 0x40,
                                                0x80, 0x1B, 0x36};

void add_round_key(std::uint8_t state[16], const std::uint8_t* rk) {
  for (int i = 0; i < 16; ++i) state[i] ^= rk[i];
}

void sub_bytes(std::uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kSbox[state[i]];
}

// State layout here: state[4*c + r] = byte in row r, column c (i.e. the
// natural input byte order).
void shift_rows(std::uint8_t state[16]) {
  std::uint8_t tmp[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) {
      tmp[4 * c + r] = state[4 * ((c + r) % 4) + r];
    }
  }
  std::memcpy(state, tmp, 16);
}

void mix_columns(std::uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = state + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3);
    col[3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3));
  }
}

struct Kernels {
  void (*expand)(Aes128::Key, Aes128::Schedule&);
  Aes128::EncryptFn encrypt;
};

Kernels pick_kernels() {
#if defined(__x86_64__)
  if (cpu().aes_ni) {
    return {&detail::aes128_expand_ni, &detail::aes128_encrypt_ni};
  }
#endif
  return {&detail::aes128_expand_scalar, &detail::aes128_encrypt_scalar};
}

/// The kernels this CPU runs, chosen on first use and fixed for the process.
const Kernels& kernels() {
  static const Kernels picked = pick_kernels();
  return picked;
}

#if defined(__x86_64__)

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store(std::uint8_t* p, __m128i x) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x);
}

// Round key i+1 from round key i. AESKEYGENASSIST leaves
// SubWord(RotWord(w[4i+3])) ^ Rcon in its top lane; broadcast, it is XORed
// onto the running prefix XOR of round key i's four words.
template <int kRconByte>
__attribute__((target("aes"))) inline __m128i next_round_key(__m128i key) {
  const __m128i assist = _mm_shuffle_epi32(
      _mm_aeskeygenassist_si128(key, kRconByte), 0xFF);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

#endif  // __x86_64__

}  // namespace

namespace detail {

void aes128_expand_scalar(Aes128::Key key, Aes128::Schedule& schedule) {
  std::uint8_t* w = schedule.data();  // w[4i..4i+3] is word i
  std::copy(key.begin(), key.end(), w);
  for (std::size_t i = 4; i < 4 * (Aes128::kRounds + 1); ++i) {
    std::uint8_t temp[4] = {w[4 * i - 4], w[4 * i - 3], w[4 * i - 2],
                            w[4 * i - 1]};
    if (i % 4 == 0) {  // SubWord(RotWord(temp)) ^ Rcon
      const std::uint8_t first = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[first];
    }
    for (std::size_t j = 0; j < 4; ++j) {
      w[4 * i + j] = static_cast<std::uint8_t>(w[4 * i + j - 16] ^ temp[j]);
    }
  }
}

void aes128_encrypt_scalar(const Aes128::Schedule& schedule,
                           const std::uint8_t* in, std::uint8_t* out) {
  const std::uint8_t* rk = schedule.data();
  std::uint8_t state[16];
  std::memcpy(state, in, 16);
  add_round_key(state, rk);
  for (int round = 1; round < Aes128::kRounds; ++round) {
    sub_bytes(state);
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, rk + 16 * round);
  }
  sub_bytes(state);
  shift_rows(state);
  add_round_key(state, rk + 16 * Aes128::kRounds);
  std::memcpy(out, state, 16);
}

#if defined(__x86_64__)

__attribute__((target("aes"))) void aes128_expand_ni(
    Aes128::Key key, Aes128::Schedule& schedule) {
  std::uint8_t* rk = schedule.data();
  __m128i k = load(key.data());
  store(rk, k);
  k = next_round_key<0x01>(k);
  store(rk + 16, k);
  k = next_round_key<0x02>(k);
  store(rk + 32, k);
  k = next_round_key<0x04>(k);
  store(rk + 48, k);
  k = next_round_key<0x08>(k);
  store(rk + 64, k);
  k = next_round_key<0x10>(k);
  store(rk + 80, k);
  k = next_round_key<0x20>(k);
  store(rk + 96, k);
  k = next_round_key<0x40>(k);
  store(rk + 112, k);
  k = next_round_key<0x80>(k);
  store(rk + 128, k);
  k = next_round_key<0x1B>(k);
  store(rk + 144, k);
  k = next_round_key<0x36>(k);
  store(rk + 160, k);
}

__attribute__((target("aes"))) void aes128_encrypt_ni(
    const Aes128::Schedule& schedule, const std::uint8_t* in,
    std::uint8_t* out) {
  const std::uint8_t* rk = schedule.data();
  __m128i x = _mm_xor_si128(load(in), load(rk));
  for (int round = 1; round < Aes128::kRounds; ++round) {
    x = _mm_aesenc_si128(x, load(rk + 16 * round));
  }
  store(out, _mm_aesenclast_si128(x, load(rk + 16 * Aes128::kRounds)));
}

#endif  // __x86_64__

}  // namespace detail

void Aes128::set_key(Key key) { kernels().expand(key, round_keys_); }

IBSEC_HOT void Aes128::encrypt_block(const std::uint8_t* in,
                                     std::uint8_t* out) const {
  kernels().encrypt(round_keys_, in, out);
}

Aes128::EncryptFn Aes128::dispatched_kernel() { return kernels().encrypt; }

}  // namespace ibsec::crypto
