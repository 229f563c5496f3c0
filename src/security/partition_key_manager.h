// Partition-level key management (paper sec. 4.2).
//
// The SM generates one secret per partition and pushes it to every member
// CA inside a kKeyDistribution MAD, RSA-wrapped with the member's public
// key. This class is the CA-side endpoint: it unwraps and installs the
// secret, and serves P_Key-indexed MAC lookups to the AuthEngine — "P_Key
// is used to look up a secret key in the key table".
#pragma once

#include <map>
#include <memory>

#include "security/key_manager.h"
#include "transport/channel_adapter.h"

namespace ibsec::security {

class PartitionKeyManager final : public KeyManager {
 public:
  /// Hooks the CA's MAD chain to receive kKeyDistribution messages.
  explicit PartitionKeyManager(transport::ChannelAdapter& ca);

  /// Direct installation (tests / local SM node). Re-installation rotates:
  /// the old secret moves to the previous-epoch slot and remains valid for
  /// verification until the next rotation (one-epoch grace window).
  void install(ib::PKeyValue pkey, crypto::AuthAlgorithm alg,
               std::span<const std::uint8_t> secret);

  bool has_secret(ib::PKeyValue pkey) const {
    return table_.count(pkey & 0x7FFF) != 0;
  }
  std::size_t secret_count() const { return table_.size(); }
  std::uint64_t distributions_received() const { return received_; }
  std::uint64_t unwrap_failures() const { return unwrap_failures_; }
  /// Number of rotations seen for a partition (0 = initial install only).
  std::uint64_t epoch_of(ib::PKeyValue pkey) const;

  // --- KeyManager -------------------------------------------------------------
  const crypto::MacFunction* tx_mac(const ib::Packet& pkt) override;
  const crypto::MacFunction* rx_mac(const ib::Packet& pkt) override;
  const crypto::MacFunction* rx_mac_previous(const ib::Packet& pkt) override;

 private:
  struct Entry {
    std::unique_ptr<crypto::MacFunction> current;
    std::unique_ptr<crypto::MacFunction> previous;  // grace window
    std::uint64_t epoch = 0;
  };

  const Entry* lookup(ib::PKeyValue pkey) const;

  transport::ChannelAdapter& ca_;
  // Keyed by the 15-bit partition index (membership bit excluded).
  std::map<ib::PKeyValue, Entry> table_;
  std::uint64_t received_ = 0;
  std::uint64_t unwrap_failures_ = 0;
};

}  // namespace ibsec::security
