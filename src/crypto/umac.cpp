#include "crypto/umac.h"

#include "common/annotations.h"
#include "common/check.h"
#include <cstring>
#include <stdexcept>

namespace ibsec::crypto {
namespace {

// --- KDF -------------------------------------------------------------------
// Derives key material from the user key: AES-CTR over a counter block whose
// first 8 bytes are the derivation index and last 8 bytes a block counter,
// as in RFC 4418's KDF.
void kdf(const Aes128& cipher, std::uint64_t index,
         std::span<std::uint8_t> out) {
  Aes128::Block in{}, block;
  for (int i = 0; i < 8; ++i) {
    in[static_cast<std::size_t>(7 - i)] =
        static_cast<std::uint8_t>(index >> (8 * i));
  }
  std::uint64_t counter = 0;
  std::size_t produced = 0;
  while (produced < out.size()) {
    ++counter;
    for (int i = 0; i < 8; ++i) {
      in[static_cast<std::size_t>(15 - i)] =
          static_cast<std::uint8_t>(counter >> (8 * i));
    }
    cipher.encrypt_block(in.data(), block.data());
    const std::size_t take = std::min<std::size_t>(16, out.size() - produced);
    std::memcpy(out.data() + produced, block.data(), take);
    produced += take;
  }
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// --- L2 polynomial hash over GF(2^64 - 59) ---------------------------------

constexpr std::uint64_t kP64 = 0xFFFFFFFFFFFFFFC5ULL;  // 2^64 - 59
constexpr std::uint64_t kMarker = kP64 - 1;
constexpr std::uint64_t kMaxWordRange = 0xFFFFFFFF00000000ULL;  // 2^64 - 2^32
constexpr std::uint64_t kOffset = kMaxWordRange;

std::uint64_t mod_p64(__uint128_t x) {
  // 2^64 ≡ 59 (mod p64): fold the high word down twice, then a final
  // conditional subtract.
  std::uint64_t hi = static_cast<std::uint64_t>(x >> 64);
  std::uint64_t lo = static_cast<std::uint64_t>(x);
  __uint128_t folded = static_cast<__uint128_t>(hi) * 59 + lo;
  hi = static_cast<std::uint64_t>(folded >> 64);
  lo = static_cast<std::uint64_t>(folded);
  std::uint64_t r = lo + hi * 59;  // hi here is 0 or 1, no overflow past p64*2
  if (r < lo) r += 59;             // wrapped: add 2^64 mod p64
  if (r >= kP64) r -= kP64;
  return r;
}

std::uint64_t poly_step(std::uint64_t y, std::uint64_t key, std::uint64_t m) {
  return mod_p64(static_cast<__uint128_t>(y) * key + m);
}

// --- L3 inner-product hash over GF(2^36 - 5) --------------------------------

constexpr std::uint64_t kP36 = 0xFFFFFFFFBULL;  // 2^36 - 5

std::uint64_t mod_p36(std::uint64_t x) {
  x = (x & 0xFFFFFFFFFULL) + 5 * (x >> 36);
  if (x >= kP36) x -= kP36;
  return x;
}

}  // namespace

namespace umac_detail {

void HashIteration::init(std::span<const std::uint8_t> nh_key,
                         std::uint64_t poly_key,
                         std::span<const std::uint64_t, 8> l3_key1,
                         std::uint32_t l3_key2) {
  IBSEC_CHECK(nh_key.size() >= kL1BlockBytes)
      << "NH key too short: " << nh_key.size();
  for (std::size_t i = 0; i < nh_key_.size(); ++i) {
    nh_key_[i] = load_le32(nh_key.data() + 4 * i);
  }
  // Mask per RFC 4418 so that poly products never overflow the field fold.
  poly_key_ = poly_key & 0x01FFFFFF01FFFFFFULL;
  for (std::size_t i = 0; i < 8; ++i) l3_key1_[i] = mod_p36(l3_key1[i]);
  l3_key2_ = l3_key2;
}

std::uint64_t HashIteration::nh_block(const std::uint8_t* data,
                                      std::size_t len) const {
  // NH over one block: pad to a 32-byte multiple with zeros, interpret as
  // little-endian 32-bit words, and sum 64-bit products of key-offset word
  // pairs four lanes at a time. The initial value folds in the unpadded
  // bit length, which makes NH injective across lengths.
  std::uint64_t y = static_cast<std::uint64_t>(len) * 8;
  const std::size_t full_words = len / 4;
  std::uint32_t m[256];  // kL1BlockBytes / 4
  for (std::size_t i = 0; i < full_words; ++i) m[i] = load_le32(data + 4 * i);
  const std::size_t padded_words = ((len + 31) / 32) * 8;
  if (full_words < padded_words) {
    std::uint32_t tail = 0;
    const std::size_t rem = len % 4;
    for (std::size_t i = 0; i < rem; ++i) {
      tail |= static_cast<std::uint32_t>(data[4 * full_words + i]) << (8 * i);
    }
    m[full_words] = tail;
    for (std::size_t i = full_words + 1; i < padded_words; ++i) m[i] = 0;
  }
  const std::uint32_t* k = nh_key_.data();
  for (std::size_t i = 0; i < padded_words; i += 8) {
    y += static_cast<std::uint64_t>(m[i + 0] + k[i + 0]) *
         static_cast<std::uint64_t>(m[i + 4] + k[i + 4]);
    y += static_cast<std::uint64_t>(m[i + 1] + k[i + 1]) *
         static_cast<std::uint64_t>(m[i + 5] + k[i + 5]);
    y += static_cast<std::uint64_t>(m[i + 2] + k[i + 2]) *
         static_cast<std::uint64_t>(m[i + 6] + k[i + 6]);
    y += static_cast<std::uint64_t>(m[i + 3] + k[i + 3]) *
         static_cast<std::uint64_t>(m[i + 7] + k[i + 7]);
  }
  return y;
}

void HashIteration::absorb(std::uint64_t& poly_y, const std::uint8_t* data,
                           std::size_t len) const {
  const std::uint64_t m = nh_block(data, len);
  if (m >= kMaxWordRange) {
    // Out-of-range values are encoded as (marker, m - offset) so the hash
    // stays injective on the full 64-bit domain.
    poly_y = poly_step(poly_y, poly_key_, kMarker);
    poly_y = poly_step(poly_y, poly_key_, m - kOffset);
  } else {
    poly_y = poly_step(poly_y, poly_key_, m);
  }
}

std::uint32_t HashIteration::finish(bool multi, std::uint64_t poly_y,
                                    const std::uint8_t* last,
                                    std::size_t len) const {
  std::array<std::uint8_t, 16> l2_out{};
  std::uint64_t value;
  if (!multi) {
    // Single-block fast path (every IBA packet): L2 is the identity,
    // producing [0]_8 || NH. An empty message hashes as one zero-length
    // block.
    value = nh_block(last, len);
  } else {
    absorb(poly_y, last, len);
    value = poly_y;
  }
  for (int i = 0; i < 8; ++i) {
    l2_out[static_cast<std::size_t>(15 - i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }

  // L3: 16 bytes -> 32 bits via inner product with a key over GF(2^36 - 5),
  // then XOR of a 32-bit key to hide the hash output.
  std::uint64_t y = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t chunk =
        static_cast<std::uint64_t>(l2_out[static_cast<std::size_t>(2 * i)])
            << 8 |
        l2_out[static_cast<std::size_t>(2 * i + 1)];
    y = mod_p36(y + chunk * l3_key1_[static_cast<std::size_t>(i)]);
  }
  return static_cast<std::uint32_t>(y) ^ l3_key2_;
}

std::uint32_t HashIteration::hash(std::span<const std::uint8_t> message) const {
  // L1: split into 1024-byte blocks -> one 64-bit NH value per block, all
  // but the last folded into the L2 polynomial as they are produced (no
  // materialized NH-value list).
  if (message.size() <= kL1BlockBytes) {
    return finish(/*multi=*/false, 1, message.data(), message.size());
  }
  std::uint64_t poly_y = 1;
  std::size_t offset = 0;
  while (message.size() - offset > kL1BlockBytes) {
    absorb(poly_y, message.data() + offset, kL1BlockBytes);
    offset += kL1BlockBytes;
  }
  return finish(/*multi=*/true, poly_y, message.data() + offset,
                message.size() - offset);
}

}  // namespace umac_detail

Umac32::Umac32(std::span<const std::uint8_t> key)
    : pdf_cipher_(Aes128::Block{}) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("Umac32: key must be 16 bytes");
  }
  Aes128::Block user_key;
  std::memcpy(user_key.data(), key.data(), kKeySize);
  const Aes128 key_cipher(user_key);

  // Derivation indices follow RFC 4418: 0 = PDF key, 1 = NH key,
  // 2 = poly key, 3 = L3 key1, 4 = L3 key2.
  Aes128::Block pdf_key;
  kdf(key_cipher, 0, pdf_key);
  pdf_cipher_ = Aes128(pdf_key);

  std::vector<std::uint8_t> nh_key(umac_detail::HashIteration::kL1BlockBytes);
  kdf(key_cipher, 1, nh_key);

  std::array<std::uint8_t, 8> poly_bytes{};
  kdf(key_cipher, 2, poly_bytes);

  std::array<std::uint8_t, 64> l3k1_bytes{};
  kdf(key_cipher, 3, l3k1_bytes);
  std::array<std::uint64_t, 8> l3_key1{};
  for (std::size_t i = 0; i < 8; ++i) {
    l3_key1[i] = load_be64(l3k1_bytes.data() + 8 * i);
  }

  std::array<std::uint8_t, 4> l3k2_bytes{};
  kdf(key_cipher, 4, l3k2_bytes);

  iter_.init(nh_key, load_be64(poly_bytes.data()), l3_key1,
             load_be32(l3k2_bytes.data()));
}

std::uint32_t Umac32::pdf_xor(std::uint32_t hashed, std::uint64_t nonce,
                              Aes128::EncryptFn pad_kernel) const {
  // PDF: encrypt the nonce with its low two bits cleared; those bits select
  // one of the four 32-bit lanes, so four consecutive nonces share one AES
  // call in a caching implementation.
  Aes128::Block in{}, pad;
  const unsigned lane = static_cast<unsigned>(nonce & 3);
  const std::uint64_t masked = nonce & ~std::uint64_t{3};
  for (int i = 0; i < 8; ++i) {
    in[static_cast<std::size_t>(15 - i)] =
        static_cast<std::uint8_t>(masked >> (8 * i));
  }
  pdf_cipher_.encrypt_block(in.data(), pad.data(), pad_kernel);
  return hashed ^ load_be32(pad.data() + 4 * lane);
}

IBSEC_HOT std::uint32_t Umac32::tag(std::span<const std::uint8_t> message,
                                    std::uint64_t nonce) const {
  return detail::umac32_tag(*this, message, nonce,
                            Aes128::dispatched_kernel());
}

IBSEC_HOT std::uint32_t detail::umac32_tag(
    const Umac32& umac, std::span<const std::uint8_t> message,
    std::uint64_t nonce, Aes128::EncryptFn pad_kernel) {
  if (message.size() > Umac32::kMaxMessageBytes) {
    throw std::invalid_argument("Umac32: message too long");
  }
  return umac.pdf_xor(umac.iter_.hash(message), nonce, pad_kernel);
}

Umac64::Umac64(std::span<const std::uint8_t> key)
    : pdf_cipher_(Aes128::Block{}) {
  if (key.size() != kKeySize) {
    throw std::invalid_argument("Umac64: key must be 16 bytes");
  }
  Aes128::Block user_key;
  std::memcpy(user_key.data(), key.data(), kKeySize);
  const Aes128 key_cipher(user_key);

  Aes128::Block pdf_key;
  kdf(key_cipher, 0, pdf_key);
  pdf_cipher_ = Aes128(pdf_key);

  // Toeplitz construction: iteration i reads the NH key at byte offset 16*i;
  // poly/L3 keys are independent per iteration (streamed from the KDF).
  constexpr std::size_t kIters = 2;
  std::vector<std::uint8_t> nh_key(umac_detail::HashIteration::kL1BlockBytes +
                                   16 * (kIters - 1));
  kdf(key_cipher, 1, nh_key);

  std::array<std::uint8_t, 8 * kIters> poly_bytes{};
  kdf(key_cipher, 2, poly_bytes);
  std::array<std::uint8_t, 64 * kIters> l3k1_bytes{};
  kdf(key_cipher, 3, l3k1_bytes);
  std::array<std::uint8_t, 4 * kIters> l3k2_bytes{};
  kdf(key_cipher, 4, l3k2_bytes);

  for (std::size_t it = 0; it < kIters; ++it) {
    std::array<std::uint64_t, 8> l3_key1{};
    for (std::size_t i = 0; i < 8; ++i) {
      l3_key1[i] = load_be64(l3k1_bytes.data() + 64 * it + 8 * i);
    }
    iters_[it].init(
        std::span<const std::uint8_t>(nh_key).subspan(16 * it),
        load_be64(poly_bytes.data() + 8 * it), l3_key1,
        load_be32(l3k2_bytes.data() + 4 * it));
  }
}

std::uint64_t Umac64::tag(std::span<const std::uint8_t> message,
                          std::uint64_t nonce) const {
  return detail::umac64_tag(*this, message, nonce,
                            Aes128::dispatched_kernel());
}

std::uint64_t detail::umac64_tag(const Umac64& umac,
                                 std::span<const std::uint8_t> message,
                                 std::uint64_t nonce,
                                 Aes128::EncryptFn pad_kernel) {
  if (message.size() > Umac32::kMaxMessageBytes) {
    throw std::invalid_argument("Umac64: message too long");
  }
  const std::uint64_t hashed =
      static_cast<std::uint64_t>(umac.iters_[0].hash(message)) << 32 |
      umac.iters_[1].hash(message);

  Aes128::Block in{}, pad;
  const unsigned lane = static_cast<unsigned>(nonce & 1);
  const std::uint64_t masked = nonce & ~std::uint64_t{1};
  for (int i = 0; i < 8; ++i) {
    in[static_cast<std::size_t>(15 - i)] =
        static_cast<std::uint8_t>(masked >> (8 * i));
  }
  umac.pdf_cipher_.encrypt_block(in.data(), pad.data(), pad_kernel);
  return hashed ^ load_be64(pad.data() + 8 * lane);
}

}  // namespace ibsec::crypto
