// RSA public-key encryption for secret-key distribution.
//
// The paper's confidentiality story is deliberately narrow: "we encrypt only
// secret keys to minimize performance degradation". The Subnet Manager (or
// an initiating QP) wraps a 16-byte authentication secret with the
// recipient's public key; bulk data is never encrypted. This module
// implements the required primitive end to end: Miller-Rabin prime
// generation, keypair construction with e = 65537, and PKCS#1-v1.5-style
// type-2 random padding for the wrap operation. Decryption uses the
// Chinese Remainder Theorem (two half-width exponentiations, then Garner's
// recombination), and nothing here allocates except the returned buffers.
//
// Every Scenario uses 256-bit keys (ScenarioConfig::rsa_bits) so that
// fabric bring-up (one keypair per node) stays fast; the implementation
// supports moduli up to 2048 bits and the tests exercise 768/1024-bit keys.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/ctr_drbg.h"

namespace ibsec::crypto {

struct RsaPublicKey {
  BigInt n;
  BigInt e;
  /// Modulus size in whole bytes (ciphertext length).
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaPrivateKey {
  BigInt n;
  BigInt d;
  BigInt p;
  BigInt q;
  // CRT form of d: dp = d mod (p-1), dq = d mod (q-1), qinv = q^-1 mod p.
  BigInt dp;
  BigInt dq;
  BigInt qinv;
};

struct RsaKeyPair {
  RsaPublicKey public_key;
  RsaPrivateKey private_key;
};

/// Miller-Rabin with `rounds` random bases (error <= 4^-rounds), preceded by
/// trial division against small primes.
bool is_probable_prime(const BigInt& candidate, CtrDrbg& drbg,
                       int rounds = 24);

/// Random prime with exactly `bits` bits (top two bits set so products reach
/// the full modulus width).
BigInt generate_prime(std::size_t bits, CtrDrbg& drbg);

/// Generates an RSA keypair with a modulus of `modulus_bits` (must be >= 128,
/// even, and at most 2048).
RsaKeyPair rsa_generate(std::size_t modulus_bits, CtrDrbg& drbg);

/// Encrypts `plaintext` (at most modulus_bytes - 11 bytes) with type-2
/// random padding. Returns modulus_bytes ciphertext bytes.
std::vector<std::uint8_t> rsa_encrypt(const RsaPublicKey& key,
                                      std::span<const std::uint8_t> plaintext,
                                      CtrDrbg& drbg);

/// The raw private-key operation c^d mod n (RSADP), computed by CRT; c < n.
BigInt rsa_decrypt_raw(const RsaPrivateKey& key, const BigInt& c);

/// Inverse of rsa_encrypt; std::nullopt if the padding is malformed (wrong
/// key or corrupted ciphertext).
std::optional<std::vector<std::uint8_t>> rsa_decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext);

}  // namespace ibsec::crypto
