// Key-management interface for the ICRC-as-MAC authentication engine.
//
// The paper proposes two granularities (sec. 4):
//   Partition-level — one secret per partition, distributed by the SM;
//     any QP in the partition can authenticate to any other. Simple, but a
//     compromised member compromises the partition.
//   QP-level — one secret per communicating QP pair, established at RC
//     connect / UD Q_Key request time. Finer granularity; also covers the
//     Memory-Key (R_Key) threat because RDMA packets are authenticated
//     per-QP-pair.
//
// The AuthEngine asks the installed KeyManager for the MAC to use on a
// given packet; the lookup key differs per scheme (P_Key vs (Q_Key, SrcQP)).
#pragma once

#include "crypto/mac.h"
#include "ib/packet.h"

namespace ibsec::security {

class KeyManager {
 public:
  virtual ~KeyManager() = default;

  /// MAC for an outgoing packet; nullptr when no secret applies (caller
  /// falls back to plain ICRC or drops, per policy).
  virtual const crypto::MacFunction* tx_mac(const ib::Packet& pkt) = 0;

  /// MAC for an incoming packet; nullptr when no secret is installed for
  /// the packet's stream.
  virtual const crypto::MacFunction* rx_mac(const ib::Packet& pkt) = 0;

  /// Previous-epoch MAC for the stream, if the scheme supports key rotation
  /// and an old secret is still within its grace window. The AuthEngine
  /// falls back to this when the current-epoch tag check fails, so packets
  /// signed just before a rotation still verify.
  virtual const crypto::MacFunction* rx_mac_previous(const ib::Packet&) {
    return nullptr;
  }
};

}  // namespace ibsec::security
