// SHA-1 (FIPS 180-1), implemented from the specification.
//
// Needed for HMAC-SHA1, one of the paper's Table 4 authentication
// candidates. SHA-1 is deprecated for collision resistance; it is included
// here to reproduce the 2005 comparison, not as a recommendation.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ibsec::crypto {

class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha1() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  Digest finalize();

  static Digest hash(std::span<const std::uint8_t> data);

  /// The chaining value. Between whole blocks it is all the state there
  /// is, so Hmac keeps a key's two pad midstates in this form.
  using State = std::array<std::uint32_t, 5>;
  State state() const { return state_; }
  /// Continues from a state() taken after hashing `bytes`, a whole number
  /// of blocks.
  void resume(const State& state, std::uint64_t bytes) {
    state_ = state;
    buffered_ = 0;
    total_bytes_ = bytes;
  }

 private:
  void process_block(const std::uint8_t* block);

  State state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ibsec::crypto
