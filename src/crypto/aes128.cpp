#include "crypto/aes128.h"

#include <cstring>

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

std::uint32_t sub_word(std::uint32_t w) {
  return static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xFF]) << 24 |
         static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xFF]) << 16 |
         static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xFF]) << 8 |
         static_cast<std::uint32_t>(kSbox[w & 0xFF]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

void add_round_key(std::uint8_t state[16], const std::uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    state[4 * c + 0] ^= static_cast<std::uint8_t>(rk[c] >> 24);
    state[4 * c + 1] ^= static_cast<std::uint8_t>(rk[c] >> 16);
    state[4 * c + 2] ^= static_cast<std::uint8_t>(rk[c] >> 8);
    state[4 * c + 3] ^= static_cast<std::uint8_t>(rk[c]);
  }
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

}  // namespace

Aes128::Aes128(std::span<const std::uint8_t, kKeySize> key) {
  for (int i = 0; i < 4; ++i) {
    enc_keys_[static_cast<std::size_t>(i)] =
        static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i)]) << 24 |
        static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 1)])
            << 16 |
        static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 2)])
            << 8 |
        static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 3)]);
  }
  for (std::size_t i = 4; i < enc_keys_.size(); ++i) {
    std::uint32_t temp = enc_keys_[i - 1];
    if (i % 4 == 0) {
      temp = sub_word(rot_word(temp)) ^
             (static_cast<std::uint32_t>(kRcon[i / 4]) << 24);
    }
    enc_keys_[i] = enc_keys_[i - 4] ^ temp;
  }
}

void Aes128::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  std::uint8_t state[16];
  std::memcpy(state, in, 16);
  add_round_key(state, enc_keys_.data());
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes(state);
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, enc_keys_.data() + 4 * round);
  }
  sub_bytes(state);
  shift_rows(state);
  add_round_key(state, enc_keys_.data() + 4 * kRounds);
  std::memcpy(out, state, 16);
}

}  // namespace ibsec::crypto
