// Deterministic random bit generator in AES-128 counter mode.
//
// All *key material* in the simulated fabric (partition secrets, per-QP
// secrets, RSA prime candidates) is drawn from this DRBG rather than the
// workload PRNG, mirroring the separation a real subnet manager would keep
// between traffic randomness and cryptographic randomness. Deterministic
// seeding keeps experiments reproducible.
//
// The construction is the core of NIST SP 800-90A CTR_DRBG without
// derivation function or reseeding machinery: generate = AES-CTR keystream,
// followed by a key/counter update.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes128.h"

namespace ibsec::crypto {

class CtrDrbg {
 public:
  /// Seeds from up to 32 bytes of entropy (zero-padded if shorter).
  explicit CtrDrbg(std::span<const std::uint8_t> seed);
  /// Convenience: seeds from a 64-bit value.
  explicit CtrDrbg(std::uint64_t seed);

  /// Fills `out` with pseudo-random bytes and performs the update step.
  void generate(std::span<std::uint8_t> out);

  std::vector<std::uint8_t> generate(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    generate(std::span<std::uint8_t>(out));
    return out;
  }

  std::uint64_t next_u64();

 private:
  /// Keys the cipher and loads the counter from 32 bytes of seed material,
  /// then runs the first update.
  void start(std::span<const std::uint8_t, 32> material);
  void increment_counter();
  void update();

  Aes128::Block counter_{};
  Aes128 cipher_;  // keyed with the current DRBG key
};

}  // namespace ibsec::crypto
