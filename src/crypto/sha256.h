// SHA-256 (FIPS 180-2) — the "modern baseline" extension.
//
// The paper's candidates (MD5, SHA-1) were already weakening in 2005 and
// are broken today; a contemporary deployment of the ICRC-as-MAC scheme
// would negotiate HMAC-SHA256. This implementation derives the round
// constants from their definition (the fractional parts of the cube/square
// roots of the first primes, computed in extended precision at first use)
// rather than embedding a transcribed table; the unit tests pin the
// standard "abc" / empty-string digests, which the derivation must hit
// bit-exactly.
//
// The compression function has two kernels: the portable scalar rounds
// (the reference, and the fallback) and, on x86-64 CPUs that have them, the
// SHA extensions (SHA-NI). The kernel is picked once per process from CPUID;
// both read the same derived round constants and must agree bit for bit.
// update() and finalize() hand each run of whole blocks to the kernel in one
// call, so the chaining state stays in registers across a packet's blocks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ibsec::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  Digest finalize();

  static Digest hash(std::span<const std::uint8_t> data);

  /// The chaining value. Between whole blocks it is all the state there
  /// is, so Hmac keeps a key's two pad midstates in this form.
  using State = std::array<std::uint32_t, 8>;
  State state() const { return state_; }
  /// Continues from a state() taken after hashing `bytes`, a whole number
  /// of blocks.
  void resume(const State& state, std::uint64_t bytes) {
    state_ = state;
    buffered_ = 0;
    total_bytes_ = bytes;
  }

 private:
  State state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

namespace detail {

/// Folds `blocks` consecutive 64-byte blocks at `data` into the chaining
/// value `state` (FIPS 180-2 H0..H7). These are the kernels behind Sha256,
/// declared so the tests can run each one directly.
void sha256_blocks_scalar(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);

#if defined(__x86_64__)
/// SHA-NI kernel; call only when cpu().sha_ni.
void sha256_blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                         std::size_t blocks);
#endif

}  // namespace detail
}  // namespace ibsec::crypto
