// AES-128 block cipher (FIPS 197), encryption only.
//
// Used as (a) the PRF inside UMAC's key-derivation and pad-derivation
// functions, (b) the block cipher behind the AES-CTR DRBG that generates
// key material in the key-management subsystem, and (c) the cipher under
// PMAC. All three only encrypt, so the class has no inverse cipher.
//
// The round keys are one 176-byte schedule in FIPS 197 byte order (round r
// is bytes 16r..16r+15, each word w[i] stored first byte first). Two
// kernels read it: the portable byte-wise one (an S-box lookup per byte,
// ShiftRows and MixColumns on the byte state; the reference, and the
// fallback) and, on x86-64 CPUs that have them, the AES-NI instructions
// (AESENC/AESENCLAST for the rounds, AESKEYGENASSIST for the expansion).
// The kernel is picked once per process from CPUID; both expand to the same
// schedule and must agree bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ibsec::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;
  static constexpr int kRounds = 10;
  using Block = std::array<std::uint8_t, kBlockSize>;
  using Key = std::span<const std::uint8_t, kKeySize>;
  using Schedule = std::array<std::uint8_t, kBlockSize * (kRounds + 1)>;
  /// Encrypts one block under an expanded schedule (out may alias in).
  using EncryptFn = void (*)(const Schedule&, const std::uint8_t* in,
                             std::uint8_t* out);

  explicit Aes128(Key key) { set_key(key); }
  explicit Aes128(const Block& key) : Aes128(Key(key)) {}

  /// Re-keys in place: expands `key` over the current schedule.
  void set_key(Key key);

  /// Encrypts one 16-byte block (out may alias in) with the kernel this
  /// CPU runs.
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  /// The same with a named kernel, whatever this CPU runs.
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out,
                     EncryptFn kernel) const {
    kernel(round_keys_, in, out);
  }

  Block encrypt(const Block& in) const {
    Block out;
    encrypt_block(in.data(), out.data());
    return out;
  }

  /// The encryption kernel this CPU runs, chosen on first use and fixed for
  /// the process.
  static EncryptFn dispatched_kernel();

 private:
  alignas(16) Schedule round_keys_;
};

namespace detail {

/// Expands a 16-byte key into the 11 round keys (FIPS 197 sec. 5.2) and
/// encrypts one block under them. These are the kernels behind Aes128,
/// declared so the tests and Table 4 can run each one directly.
void aes128_expand_scalar(Aes128::Key key, Aes128::Schedule& schedule);
void aes128_encrypt_scalar(const Aes128::Schedule& schedule,
                           const std::uint8_t* in, std::uint8_t* out);

#if defined(__x86_64__)
/// AES-NI kernels; call only when cpu().aes_ni.
void aes128_expand_ni(Aes128::Key key, Aes128::Schedule& schedule);
void aes128_encrypt_ni(const Aes128::Schedule& schedule,
                       const std::uint8_t* in, std::uint8_t* out);
#endif

}  // namespace detail
}  // namespace ibsec::crypto
