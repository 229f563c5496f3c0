// Management Datagrams (MADs) — the control-plane messages of the fabric.
//
// Real IBA MADs are 256-byte UD packets to QP0/QP1 on VL15. We keep that
// envelope (UD SEND to QP0, VL15, 256-byte payload) and define a compact set
// of management messages sufficient for the paper's mechanisms:
//
//   kTrapPKeyViolation — HCA -> SM: "I received a packet with a bad P_Key"
//                        (IBA 14.2.5.x trap 257/258 analogue). Drives SIF.
//   kKeyDistribution   — SM -> CA: partition secret for P_Key, RSA-wrapped
//                        with the CA's public key (partition-level key mgmt).
//   kRcConnect         — CA -> CA: RC connection setup carrying the
//                        initiator's per-QP secret, RSA-wrapped (QP-level).
//   kQKeyRequest       — CA -> CA: ask a datagram QP for its Q_Key.
//   kQKeyResponse      — CA -> CA: Q_Key plus a fresh per-requester secret,
//                        RSA-wrapped (QP-level key mgmt for UD).
//   kPortReconfigure   — SM(or attacker) -> CA: M_Key-gated management write
//                        (models "leaked M_Key lets you reconfigure").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/mac.h"
#include "ib/types.h"

namespace ibsec::transport {

enum class MadType : std::uint8_t {
  kTrapPKeyViolation = 1,
  kKeyDistribution = 2,
  kRcConnect = 3,
  kQKeyRequest = 4,
  kQKeyResponse = 5,
  kPortReconfigure = 6,
};

struct Mad {
  static constexpr std::size_t kWireSize = 256;
  static constexpr std::size_t kMaxBlobSize = 200;

  MadType type = MadType::kTrapPKeyViolation;
  std::uint16_t src_node = 0;

  ib::PKeyValue pkey = 0;            // trap / key distribution
  ib::QKeyValue qkey = 0;            // q_key response
  ib::Qpn src_qp = 0;                // connect / q_key request
  ib::Qpn dst_qp = 0;
  std::uint64_t m_key = 0;           // port reconfigure authority
  std::uint32_t attribute = 0;       // port reconfigure: which attribute
  std::uint32_t value = 0;           // port reconfigure: new value
  crypto::AuthAlgorithm auth_alg = crypto::AuthAlgorithm::kNone;
  std::vector<std::uint8_t> blob;    // RSA-wrapped key material

  /// Writes the fixed 256-byte payload (zero padded) into `out`, which
  /// keeps its capacity when that suffices. The blob must fit kMaxBlobSize.
  void serialize(std::vector<std::uint8_t>& out) const;
  static std::optional<Mad> parse(std::span<const std::uint8_t> payload);
};

}  // namespace ibsec::transport
