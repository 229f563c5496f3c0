// MD5 message digest (RFC 1321), implemented from the specification.
//
// MD5 is cryptographically broken for collision resistance, but the paper
// evaluates HMAC-MD5 (IPSec's mandatory MAC at the time) as an
// authentication candidate, so a faithful implementation is required for the
// Table 4 comparison. Do not use outside that historical context.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ibsec::crypto {

class Md5 {
 public:
  static constexpr std::size_t kDigestSize = 16;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Md5() { reset(); }

  void reset();
  void update(std::span<const std::uint8_t> data);
  /// Appends padding/length and returns the digest. The object must be
  /// reset() before further use.
  Digest finalize();

  /// One-shot digest.
  static Digest hash(std::span<const std::uint8_t> data);

  /// The chaining value. Between whole blocks it is all the state there
  /// is, so Hmac keeps a key's two pad midstates in this form.
  using State = std::array<std::uint32_t, 4>;
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
