// AES-128 block cipher (FIPS 197), table-based implementation.
//
// Used as (a) the PRF inside UMAC's key-derivation and pad-derivation
// functions, and (b) the block cipher behind the AES-CTR DRBG that generates
// key material in the key-management subsystem. Both only encrypt, so the
// class has no inverse cipher.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ibsec::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  using Block = std::array<std::uint8_t, kBlockSize>;

  explicit Aes128(std::span<const std::uint8_t, kKeySize> key);
  explicit Aes128(const Block& key)
      : Aes128(std::span<const std::uint8_t, kKeySize>(key)) {}

  /// Encrypts one 16-byte block (out may alias in).
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  Block encrypt(const Block& in) const {
    Block out;
    encrypt_block(in.data(), out.data());
    return out;
  }

 private:
  static constexpr int kRounds = 10;
  // Round keys as 4 words per round, big-endian packed.
  std::array<std::uint32_t, 4 * (kRounds + 1)> enc_keys_{};
};

}  // namespace ibsec::crypto
