#include "crypto/mac.h"

#include <stdexcept>

#include "crypto/crc32.h"
#include "crypto/hmac.h"
#include "crypto/pmac.h"
#include "crypto/sha256.h"
#include "crypto/umac.h"

namespace ibsec::crypto {
namespace {

class CrcMac final : public MacFunction {
 public:
  std::uint32_t tag32(std::span<const std::uint8_t> message,
                      std::uint64_t /*nonce*/) const override {
    // Plain ICRC semantics: no key, no nonce — anyone can compute it, which
    // is exactly the vulnerability the paper fixes.
    return crc32(message);
  }
  AuthAlgorithm algorithm() const override { return AuthAlgorithm::kNone; }
};

template <typename Hash, AuthAlgorithm Alg>
class HmacMac final : public MacFunction {
 public:
  explicit HmacMac(std::span<const std::uint8_t> key) : proto_(key) {
    if (key.size() != 16) {
      throw std::invalid_argument("HMAC MAC: key must be 16 bytes");
    }
  }

  std::uint32_t tag32(std::span<const std::uint8_t> message,
                      std::uint64_t nonce) const override {
    // The nonce (PSN) is appended to the authenticated stream so replayed
    // payloads cannot reuse an old tag under a bumped sequence number.
    // Streaming it after the message (stack copy of the key-primed state)
    // authenticates exactly message || nonce_be without copying the message
    // or redoing the per-key pad setup.
    Hmac<Hash> h = proto_;
    h.update(message);
    std::uint8_t nonce_be[8];
    for (int i = 0; i < 8; ++i) {
      nonce_be[i] = static_cast<std::uint8_t>(nonce >> (8 * (7 - i)));
    }
    h.update(nonce_be);
    const auto digest = h.finalize();
    return static_cast<std::uint32_t>(digest[0]) << 24 |
           static_cast<std::uint32_t>(digest[1]) << 16 |
           static_cast<std::uint32_t>(digest[2]) << 8 |
           static_cast<std::uint32_t>(digest[3]);
  }
  AuthAlgorithm algorithm() const override { return Alg; }

 private:
  /// Key-primed HMAC state (ipad and opad midstates hashed once); tag32
  /// copies it onto the stack per call.
  Hmac<Hash> proto_;
};

class PmacMac final : public MacFunction {
 public:
  explicit PmacMac(std::span<const std::uint8_t> key) : pmac_(key) {}

  std::uint32_t tag32(std::span<const std::uint8_t> message,
                      std::uint64_t nonce) const override {
    return pmac_.tag32(message, nonce);
  }
  AuthAlgorithm algorithm() const override { return AuthAlgorithm::kPmac; }

 private:
  Pmac pmac_;
};

class UmacMac final : public MacFunction {
 public:
  explicit UmacMac(std::span<const std::uint8_t> key) : umac_(key) {}

  std::uint32_t tag32(std::span<const std::uint8_t> message,
                      std::uint64_t nonce) const override {
    return umac_.tag(message, nonce);
  }
  AuthAlgorithm algorithm() const override { return AuthAlgorithm::kUmac32; }

 private:
  Umac32 umac_;
};

}  // namespace

std::string_view to_string(AuthAlgorithm alg) {
  switch (alg) {
    case AuthAlgorithm::kNone:
      return "icrc-crc32";
    case AuthAlgorithm::kUmac32:
      return "umac-32";
    case AuthAlgorithm::kHmacMd5:
      return "hmac-md5-32";
    case AuthAlgorithm::kHmacSha1:
      return "hmac-sha1-32";
    case AuthAlgorithm::kPmac:
      return "pmac-aes-32";
    case AuthAlgorithm::kHmacSha256:
      return "hmac-sha256-32";
  }
  return "unknown";
}

std::unique_ptr<MacFunction> make_mac(AuthAlgorithm alg,
                                      std::span<const std::uint8_t> key) {
  switch (alg) {
    case AuthAlgorithm::kNone:
      return std::make_unique<CrcMac>();
    case AuthAlgorithm::kUmac32:
      return std::make_unique<UmacMac>(key);
    case AuthAlgorithm::kHmacMd5:
      return std::make_unique<HmacMac<Md5, AuthAlgorithm::kHmacMd5>>(key);
    case AuthAlgorithm::kHmacSha1:
      return std::make_unique<HmacMac<Sha1, AuthAlgorithm::kHmacSha1>>(key);
    case AuthAlgorithm::kPmac:
      return std::make_unique<PmacMac>(key);
    case AuthAlgorithm::kHmacSha256:
      return std::make_unique<HmacMac<Sha256, AuthAlgorithm::kHmacSha256>>(
          key);
  }
  throw std::invalid_argument("make_mac: unknown algorithm");
}

}  // namespace ibsec::crypto
