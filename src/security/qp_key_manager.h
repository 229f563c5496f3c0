// QP-level key management (paper sec. 4.3) — per-QP-pair secrets.
//
// RC: the connection initiator generates the secret and ships it inside the
// kRcConnect MAD, RSA-wrapped with the *node-level* public key of the peer
// ("the key is distributed at the node level because it uses node-level
// encryption keys"). Both sides then index the secret by their local QPN —
// an RC QP talks to exactly one peer.
//
// UD: a sender must first fetch the destination QP's Q_Key. In this scheme
// the kQKeyResponse also carries a *fresh* secret generated per request.
// The responder indexes it by (its Q_Key's QP, requester node, requester
// QP) — the paper's (Q_Key, S_QP) composite index, because one datagram QP
// issues many secrets (Figure 3). The requester indexes by (its QP, peer).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "security/key_manager.h"
#include "transport/channel_adapter.h"

namespace ibsec::security {

class QpKeyManager final : public KeyManager {
 public:
  /// `alg` is the MAC negotiated for keys this manager issues.
  QpKeyManager(transport::ChannelAdapter& ca,
               crypto::AuthAlgorithm alg = crypto::AuthAlgorithm::kUmac32);

  // --- RC ---------------------------------------------------------------------
  /// Initiator side: generates and ships the per-connection secret. The RC
  /// QPs must already be bound (bind_rc on both CAs).
  bool establish_rc(ib::Qpn local_qp, int peer_node, ib::Qpn peer_qpn);

  // --- UD ---------------------------------------------------------------------
  /// Requests the destination QP's Q_Key (and a fresh secret). When the
  /// response arrives, `on_ready` fires with the Q_Key to use.
  using QKeyReadyCallback =
      std::function<void(int peer_node, ib::Qpn peer_qp, ib::QKeyValue qkey)>;
  bool request_qkey(ib::Qpn local_qp, int peer_node, ib::Qpn peer_qp);
  /// Callbacks fire (in registration order) on every completed exchange;
  /// multiple traffic sources on one CA each register their own.
  void add_qkey_ready_callback(QKeyReadyCallback cb) {
    on_ready_.push_back(std::move(cb));
  }
  /// The Q_Key learned for (local_qp -> peer), if the exchange completed.
  std::optional<ib::QKeyValue> qkey_for(ib::Qpn local_qp, int peer_node,
                                        ib::Qpn peer_qp) const;

  // --- introspection ------------------------------------------------------------
  std::size_t rc_secret_count() const { return rc_table_.size(); }
  std::size_t ud_tx_secret_count() const { return ud_tx_table_.size(); }
  std::size_t ud_rx_secret_count() const { return ud_rx_table_.size(); }
  std::uint64_t unwrap_failures() const { return unwrap_failures_; }

  // --- KeyManager -----------------------------------------------------------
  const crypto::MacFunction* tx_mac(const ib::Packet& pkt) override;
  const crypto::MacFunction* rx_mac(const ib::Packet& pkt) override;

 private:
  using PeerKey = std::tuple<ib::Qpn, int, ib::Qpn>;  // local, node, remote

  bool handle_mad(const transport::Mad& mad);

  transport::ChannelAdapter& ca_;
  crypto::AuthAlgorithm alg_;
  // RC: local QPN -> MAC (one peer per RC QP).
  std::map<ib::Qpn, std::unique_ptr<crypto::MacFunction>> rc_table_;
  // UD sender: (local QP, peer node, peer QP) -> MAC.
  std::map<PeerKey, std::unique_ptr<crypto::MacFunction>> ud_tx_table_;
  std::map<PeerKey, ib::QKeyValue> learned_qkeys_;
  // UD receiver: (local QP, sender node, sender QP) -> MAC.
  std::map<PeerKey, std::unique_ptr<crypto::MacFunction>> ud_rx_table_;
  std::vector<QKeyReadyCallback> on_ready_;
  std::uint64_t unwrap_failures_ = 0;
};

}  // namespace ibsec::security
