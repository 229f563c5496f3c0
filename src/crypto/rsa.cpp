#include "crypto/rsa.h"

#include <array>
#include <stdexcept>

namespace ibsec::crypto {
namespace {

constexpr std::array<std::uint32_t, 54> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// The largest modulus a BigInt holds.
constexpr std::size_t kMaxModulusBits = BigInt::kMaxLimbs * BigInt::kLimbBits;

}  // namespace

bool is_probable_prime(const BigInt& candidate, CtrDrbg& drbg, int rounds) {
  if (candidate < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    // A multiple of a small prime is prime only if it is that prime.
    if (candidate.mod_u32(p) == 0) return candidate == BigInt(p);
  }

  // Write candidate - 1 = d * 2^r with d odd.
  const BigInt one(1);
  const BigInt n_minus_1 = candidate - one;
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }

  // The rounds run in Montgomery form; comparing domain values compares
  // the residues they stand for.
  const Montgomery mont(candidate);
  const BigInt one_m = mont.enter(one);
  const BigInt minus_one_m = mont.enter(n_minus_1);
  const BigInt n_minus_3 = candidate - BigInt(3);
  for (int round = 0; round < rounds; ++round) {
    // Base a uniform in [2, candidate - 2].
    const BigInt a =
        BigInt::random_below(n_minus_3,
                             [&](std::span<std::uint8_t> out) {
                               drbg.generate(out);
                             }) +
        BigInt(2);
    BigInt x = mont.pow(mont.enter(a), d);
    if (x == one_m || x == minus_one_m) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = mont.mul(x, x);
      if (x == minus_one_m) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt generate_prime(std::size_t bits, CtrDrbg& drbg) {
  if (bits < 16) throw std::invalid_argument("generate_prime: bits too small");
  if (bits > kMaxModulusBits / 2) {
    throw std::invalid_argument("generate_prime: bits too large");
  }
  std::array<std::uint8_t, kMaxModulusBits / 16> storage;
  const std::span<std::uint8_t> bytes =
      std::span<std::uint8_t>(storage).first((bits + 7) / 8);
  for (;;) {
    drbg.generate(bytes);
    // Force exact bit length with the top two bits set, and oddness.
    const std::size_t top_bit = (bits - 1) % 8;
    bytes[0] &= static_cast<std::uint8_t>((1u << (top_bit + 1)) - 1);
    bytes[0] |= static_cast<std::uint8_t>(1u << top_bit);
    if (top_bit == 0 && bytes.size() > 1) {
      bytes[1] |= 0x80;
    } else if (top_bit > 0) {
      bytes[0] |= static_cast<std::uint8_t>(1u << (top_bit - 1));
    }
    bytes.back() |= 1;
    BigInt candidate = BigInt::from_bytes_be(bytes);
    // Walk odd numbers from the candidate; bounded walk keeps the
    // distribution near-uniform while avoiding fresh DRBG draws per test.
    for (int step = 0; step < 64; ++step) {
      if (is_probable_prime(candidate, drbg)) return candidate;
      candidate = candidate + BigInt(2);
    }
  }
}

RsaKeyPair rsa_generate(std::size_t modulus_bits, CtrDrbg& drbg) {
  if (modulus_bits < 128 || modulus_bits % 2 != 0 ||
      modulus_bits > kMaxModulusBits) {
    throw std::invalid_argument(
        "rsa_generate: modulus_bits must be even, >= 128 and <= 2048");
  }
  const BigInt e(65537);
  const BigInt one(1);
  for (;;) {
    const BigInt p = generate_prime(modulus_bits / 2, drbg);
    const BigInt q = generate_prime(modulus_bits / 2, drbg);
    if (p == q) continue;
    const BigInt n = p * q;
    if (n.bit_length() != modulus_bits) continue;
    const BigInt p1 = p - one;
    const BigInt q1 = q - one;
    // nullopt exactly when gcd(e, phi) != 1.
    const auto d = BigInt::mod_inverse(e, p1 * q1);
    if (!d) continue;
    return RsaKeyPair{
        RsaPublicKey{n, e},
        RsaPrivateKey{n, *d, p, q, *d % p1, *d % q1,
                      *BigInt::mod_inverse(q, p)}};
  }
}

BigInt rsa_decrypt_raw(const RsaPrivateKey& key, const BigInt& c) {
  // m1 = c^dp mod p, m2 = c^dq mod q, then m = m2 + q·(qinv·(m1 - m2) mod p).
  const BigInt m1 = BigInt::modexp(c, key.dp, key.p);
  const BigInt m2 = BigInt::modexp(c, key.dq, key.q);
  const BigInt m2p = m2 % key.p;
  const BigInt diff = m1 >= m2p ? m1 - m2p : m1 + key.p - m2p;
  return m2 + ((key.qinv * diff) % key.p) * key.q;
}

std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext,
                                      CtrDrbg& drbg) {
  const std::size_t k = key.modulus_bytes();
  if (plaintext.size() + 11 > k) {
    throw std::invalid_argument("rsa_encrypt: plaintext too long for modulus");
  }
  // EB = 00 || 02 || PS (nonzero random) || 00 || D
  std::array<std::uint8_t, BigInt::kMaxBytes> storage{};
  const std::span<std::uint8_t> block =
      std::span<std::uint8_t>(storage).first(k);
  block[1] = 0x02;
  const std::size_t pad_len = k - 3 - plaintext.size();
  for (std::size_t i = 0; i < pad_len; ++i) {
    std::uint8_t b = 0;
    do {
      std::array<std::uint8_t, 1> one_byte{};
      drbg.generate(one_byte);
      b = one_byte[0];
    } while (b == 0);
    block[2 + i] = b;
  }
  std::copy(plaintext.begin(), plaintext.end(), block.begin() + 3 + pad_len);

  const BigInt c = BigInt::modexp(BigInt::from_bytes_be(block), key.e, key.n);
  std::vector<std::uint8_t> out(k);
  c.to_bytes_be(out);
  return out;
}

std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (ciphertext.size() != k) return std::nullopt;
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= key.n) return std::nullopt;
  std::array<std::uint8_t, BigInt::kMaxBytes> storage;
  const std::span<std::uint8_t> block =
      std::span<std::uint8_t>(storage).first(k);
  rsa_decrypt_raw(key, c).to_bytes_be(block);

  if (block.size() < 11 || block[0] != 0x00 || block[1] != 0x02) {
    return std::nullopt;
  }
  std::size_t sep = 2;
  while (sep < block.size() && block[sep] != 0x00) ++sep;
  if (sep == block.size() || sep < 10) return std::nullopt;  // PS >= 8 bytes
  return std::vector<std::uint8_t>(block.begin() + static_cast<long>(sep) + 1,
                                   block.end());
}

}  // namespace ibsec::crypto
