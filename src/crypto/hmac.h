// HMAC (RFC 2104), generic over the underlying hash.
//
// HMAC(K, m) = H((K' ^ opad) || H((K' ^ ipad) || m)), where K' is the key
// padded (or pre-hashed, if longer than a block) to the hash block size.
// Instantiated with Md5 and Sha1 for the paper's HMAC-MD5 / HMAC-SHA1
// authentication candidates. The paper truncates tags to 32 bits to fit the
// ICRC field; truncated_tag32() implements RFC 2104 section 5 truncation
// (leftmost bytes).
//
// The key's two pad blocks are hashed once, at construction; every MAC then
// starts from copies of those midstates, so a message costs its own blocks
// plus one outer block. A one-shot mac() still compresses both pad blocks,
// as the textbook construction does.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "common/annotations.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"

namespace ibsec::crypto {

template <typename Hash>
class Hmac {
 public:
  static constexpr std::size_t kDigestSize = Hash::kDigestSize;
  static constexpr std::size_t kBlockSize = Hash::kBlockSize;
  using Digest = typename Hash::Digest;

  explicit Hmac(std::span<const std::uint8_t> key) {
    std::array<std::uint8_t, kBlockSize> normalized{};
    if (key.size() > kBlockSize) {
      const Digest hashed = Hash::hash(key);
      std::copy(hashed.begin(), hashed.end(), normalized.begin());
    } else {
      std::copy(key.begin(), key.end(), normalized.begin());
    }
    std::array<std::uint8_t, kBlockSize> ipad;
    std::array<std::uint8_t, kBlockSize> opad;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      ipad[i] = static_cast<std::uint8_t>(normalized[i] ^ 0x36);
      opad[i] = static_cast<std::uint8_t>(normalized[i] ^ 0x5c);
    }
    Hash pad;
    pad.update(ipad);
    inner_start_ = pad.state();
    pad.reset();
    pad.update(opad);
    outer_start_ = pad.state();
    reset();
  }

  void reset() { inner_.resume(inner_start_, kBlockSize); }

  IBSEC_HOT void update(std::span<const std::uint8_t> data) {
    inner_.update(data);
  }

  Digest finalize() {
    const Digest inner_digest = inner_.finalize();
    Hash outer;
    outer.resume(outer_start_, kBlockSize);
    outer.update(inner_digest);
    return outer.finalize();
  }

  /// One-shot MAC.
  static Digest mac(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> message) {
    Hmac h(key);
    h.update(message);
    return h.finalize();
  }

  /// Leftmost 32 bits of the MAC, big-endian — the paper's ICRC-sized tag.
  static std::uint32_t truncated_tag32(std::span<const std::uint8_t> key,
                                       std::span<const std::uint8_t> message) {
    const Digest d = mac(key, message);
    return static_cast<std::uint32_t>(d[0]) << 24 |
           static_cast<std::uint32_t>(d[1]) << 16 |
           static_cast<std::uint32_t>(d[2]) << 8 |
           static_cast<std::uint32_t>(d[3]);
  }

 private:
  // Chaining values after the key's ipad and opad blocks: reset() and
  // finalize() resume from them instead of re-hashing a pad block per MAC.
  typename Hash::State inner_start_{};
  typename Hash::State outer_start_{};
  Hash inner_;
};

using HmacMd5 = Hmac<Md5>;
using HmacSha1 = Hmac<Sha1>;

}  // namespace ibsec::crypto
