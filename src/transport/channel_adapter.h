// The Channel Adapter (CA): QPs, partition/Q_Key/M_Key enforcement, RDMA
// memory protection, MAD handling, and the attachment point for the paper's
// ICRC-as-MAC authentication engine.
//
// Receive pipeline for data packets (the order matters and mirrors IBA):
//   1. P_Key check against the port partition table; violation increments
//      the P_Key Violation Counter and (optionally) sends a trap MAD to the
//      SM — the signal that arms Stateful Ingress Filtering.
//   2. Authentication check (when an authenticator is attached): the ICRC
//      field is interpreted per BTH.resv8a — 0 means plain ICRC, nonzero
//      selects a MAC whose key is found by the key-management scheme.
//   3. Q_Key check for UD packets (plaintext Q_Key — the vulnerability).
//   4. RDMA requests validate the R_Key against the memory-region table and
//      execute against simulated memory with no QP intervention.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "crypto/ctr_drbg.h"
#include "crypto/rsa.h"
#include "fabric/topology.h"
#include "ib/keys.h"
#include "ib/packet.h"
#include "obs/decision.h"
#include "obs/registry.h"
#include "transport/mad.h"
#include "transport/pki.h"
#include "transport/qp.h"

namespace ibsec::transport {

enum class AuthVerdict : std::uint8_t {
  kAccept = 0,          ///< tag valid (or plain ICRC valid and policy allows)
  kNotAuthenticated,    ///< resv8a == 0 while policy demands authentication
  kRejectBadTag,        ///< MAC mismatch — forged or corrupted
  kRejectNoKey,         ///< algorithm claimed but no matching secret
  kRejectReplay,        ///< PSN outside/duplicate in the replay window
};

/// Implemented by security::AuthEngine; the CA only sees this interface.
class PacketAuthenticator {
 public:
  virtual ~PacketAuthenticator() = default;

  /// Signs an outgoing packet in place (sets BTH.resv8a and the ICRC field).
  /// Returns false when no key/policy applies — the caller then finalizes
  /// with a plain ICRC.
  virtual bool sign(ib::Packet& pkt) = 0;

  /// Verdict for an incoming data packet.
  virtual AuthVerdict verify(const ib::Packet& pkt) = 0;
};

class ChannelAdapter {
 public:
  /// Creates the CA, generates its RSA identity (512-bit by default, for
  /// bring-up speed), registers it in the PKI directory, and hooks the
  /// node's fabric HCA.
  ChannelAdapter(fabric::Fabric& fabric, int node, PkiDirectory& pki,
                 std::uint64_t key_seed, std::size_t rsa_bits = 512);

  int node() const { return node_; }
  fabric::Hca& hca() { return fabric_.hca(node_); }
  fabric::Fabric& fabric() { return fabric_; }

  // --- identity / confidentiality --------------------------------------------
  const crypto::RsaPublicKey& public_key() const {
    return keypair_.public_key;
  }
  /// Decrypts an RSA blob addressed to this CA (key distribution).
  std::optional<std::vector<std::uint8_t>> unwrap(
      std::span<const std::uint8_t> ciphertext) const {
    return crypto::rsa_decrypt(keypair_.private_key, ciphertext);
  }
  /// Encrypts a blob to another node's registered public key.
  std::optional<std::vector<std::uint8_t>> wrap_for(
      int node, std::span<const std::uint8_t> plaintext);
  crypto::CtrDrbg& drbg() { return drbg_; }

  // --- tables ------------------------------------------------------------------
  ib::PartitionTable& partition_table() { return partition_table_; }
  ib::NodeKeys& node_keys() { return node_keys_; }
  ib::MemoryRegionTable& memory_table() { return memory_table_; }

  /// Registers an RDMA-accessible region backed by `initial` bytes.
  bool register_memory(const ib::MemoryRegion& region,
                       std::vector<std::uint8_t> initial);
  /// The simulated memory behind an R_Key (tests inspect tampering).
  const std::vector<std::uint8_t>* memory_of(ib::RKeyValue rkey) const;

  // --- QPs ------------------------------------------------------------------
  QueuePair& create_qp(ServiceType type, ib::PKeyValue pkey);
  QueuePair* find_qp(ib::Qpn qpn);
  /// Binds an RC QP to its remote endpoint (both sides must call).
  void bind_rc(ib::Qpn local, int peer_node, ib::Qpn peer_qpn);

  // --- data path ----------------------------------------------------------------
  /// SEND on an RC QP (to its bound peer) or UD QP (to dst_node/dst_qp with
  /// the remote Q_Key). Returns false on bad arguments. `created_at` < 0
  /// stamps the current time; workloads pass the true generation instant
  /// when a message waited in an application queue (key exchange in flight).
  bool post_send(ib::Qpn local_qp, std::vector<std::uint8_t> payload,
                 ib::PacketMeta::TrafficClass tclass,
                 int dst_node = -1, ib::Qpn dst_qp = 0,
                 ib::QKeyValue remote_qkey = 0, SimTime created_at = -1);

  /// SEND of an arbitrarily large message on a bound RC QP. Payloads beyond
  /// the MTU are segmented into SEND First/Middle/Last packets, each with
  /// its own PSN and (when authentication applies) its own tag; the peer CA
  /// reassembles in PSN order and delivers via the message handler. UD
  /// messages must fit one MTU (IBA semantics) — use post_send.
  bool post_message(ib::Qpn local_qp, std::vector<std::uint8_t> message,
                    ib::PacketMeta::TrafficClass tclass);
  using MessageHandler = std::function<void(std::vector<std::uint8_t> message,
                                            const QueuePair& qp)>;
  /// Fires once per complete message: single-packet SENDs and reassembled
  /// multi-packet ones alike.
  void set_message_handler(MessageHandler handler) {
    message_handler_ = std::move(handler);
  }

  /// RDMA WRITE over a bound RC QP. `ack_req` asks the responder for an RC
  /// acknowledgement.
  bool post_rdma_write(ib::Qpn local_qp, std::uint64_t remote_va,
                       ib::RKeyValue rkey, std::vector<std::uint8_t> payload,
                       ib::PacketMeta::TrafficClass tclass,
                       bool ack_req = false);

  /// RDMA READ over a bound RC QP: the responder's CA serves the data with
  /// no QP involvement (checked only against the memory-region table). The
  /// completion handler fires with the data (ok=true) or with a NAK
  /// (ok=false: bad R_Key, bounds, or permission).
  bool post_rdma_read(ib::Qpn local_qp, std::uint64_t remote_va,
                      ib::RKeyValue rkey, std::uint32_t length,
                      ib::PacketMeta::TrafficClass tclass);
  using ReadCompletionHandler = std::function<void(
      ib::Qpn local_qp, std::uint64_t va, std::vector<std::uint8_t> data,
      bool ok)>;
  void set_read_completion_handler(ReadCompletionHandler handler) {
    read_handler_ = std::move(handler);
  }

  /// Raw injection, bypassing every CA-side check — the compromised-node
  /// primitive the DoS attacker uses.
  void inject_raw(ib::Packet&& pkt);

  // --- RC reliability ---------------------------------------------------------
  /// Enables/configures the RC reliability protocol (see rc_reliability.h).
  /// Off by default: RC QPs then keep the seed fabric's fire-and-forget
  /// semantics. Set before posting traffic.
  void set_rc_config(const RcConfig& config) { rc_config_ = config; }
  const RcConfig& rc_config() const { return rc_config_; }
  /// Retry exhaustion: the QP is now in error (posts fail) and
  /// `oldest_unacked` is the PSN of the first request that was given up on.
  using RcErrorHandler =
      std::function<void(ib::Qpn qpn, ib::Psn oldest_unacked)>;
  void set_rc_error_handler(RcErrorHandler handler) {
    rc_error_handler_ = std::move(handler);
  }

  // --- management -----------------------------------------------------------------
  void send_mad(int dst_node, const Mad& mad);
  /// Runs the handler chain for a MAD without a fabric round-trip (used for
  /// node-local management, e.g. the SM configuring its own CA).
  void deliver_local_mad(const Mad& mad);
  /// Handlers run in registration order until one returns true.
  using MadHandler = std::function<bool(const Mad&)>;
  void add_mad_handler(MadHandler handler);
  /// Where P_Key-violation traps go; < 0 disables traps.
  void set_sm_node(int node) { sm_node_ = node; }

  /// Port attributes writable via kPortReconfigure MADs. Attributes below
  /// kBaseboardAttributeBase are M_Key-gated subnet-management state;
  /// attributes at/above it are B_Key-gated baseboard state.
  static constexpr std::uint32_t kBaseboardAttributeBase = 0x1000;
  std::uint32_t port_attribute(std::uint32_t attr) const;

  // --- security attachment ----------------------------------------------------------
  void set_authenticator(PacketAuthenticator* auth) { authenticator_ = auth; }

  // --- app delivery --------------------------------------------------------------
  using ReceiveHandler =
      std::function<void(const ib::Packet&, const QueuePair&)>;
  void set_receive_handler(ReceiveHandler handler) {
    receive_handler_ = std::move(handler);
  }
  /// Every delivered data packet (for metrics), including RDMA.
  using DeliveryProbe = std::function<void(const ib::Packet&)>;
  void set_delivery_probe(DeliveryProbe probe) { probe_ = std::move(probe); }

  // --- counters ---------------------------------------------------------------
  /// Registry counters under "ca.<node>.retired.<cause>", the only store of
  /// these counts: every packet the HCA hands up is retired by exactly one of
  /// them, so per-node conservation (hca.received == Σ retired.*) holds by
  /// construction. "delivered" covers SENDs reaching a QP, applied RDMA
  /// WRITEs, and served RDMA READ requests.
  struct RetireObs {
    obs::Counter* vcrc = nullptr;
    obs::Counter* mad = nullptr;
    obs::Counter* pkey_violation = nullptr;
    obs::Counter* auth_missing = nullptr;   ///< MAC required, none present
    obs::Counter* auth_rejected = nullptr; ///< bad tag / no key / replay
    obs::Counter* icrc_error = nullptr;
    obs::Counter* rdma_rejected = nullptr;
    obs::Counter* rdma_nak = nullptr;
    obs::Counter* rdma_read_response = nullptr;
    obs::Counter* ack = nullptr;
    obs::Counter* nak = nullptr;
    obs::Counter* no_dest_qp = nullptr;
    obs::Counter* qkey_violation = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* rc_duplicate = nullptr;
    obs::Counter* rc_out_of_order = nullptr;
    obs::Counter* rc_bad_control = nullptr;
  };
  const RetireObs& retire_obs() const { return retire_; }
  /// Counters under "ca.<node>.rc.": the reliability protocol's own event
  /// stream (retransmits, acks/naks sent, retry exhaustions).
  struct RcObs {
    obs::Counter* retransmits = nullptr;
    obs::Counter* acks = nullptr;
    obs::Counter* naks = nullptr;
    obs::Counter* retry_exhausted = nullptr;
    /// Attack-tagged RC control packets that passed validation AND cleared
    /// send-window entries they never earned — the rc-spoof campaign's
    /// success metric. Stays 0 with validate_control on unless a spoofed
    /// PSN lands inside the live window (~window/2^24 per attempt). Created
    /// on first use ("ca.<n>.rc.spoofed_control_accepted"), so attack-free
    /// runs never grow a snapshot entry; read it via rc_spoofed_accepted().
    obs::Counter* spoofed_control_accepted = nullptr;
  };
  const RcObs& rc_obs() const { return rc_obs_; }
  std::uint64_t rc_spoofed_accepted() const {
    return obs::value_or_zero(rc_obs_.spoofed_control_accepted);
  }
  /// UD packets dropped at `qpn` for a bad Q_Key
  /// ("ca.<n>.qp.<qpn>.dropped_bad_qkey", created on the first drop).
  std::uint64_t qkey_drops(ib::Qpn qpn) const;

  /// Counts the registry does not export.
  struct Counters {
    std::uint64_t traps_sent = 0;
    /// MADs from the fabric and node-local ones alike.
    std::uint64_t mads_received = 0;
    std::uint64_t rdma_writes_applied = 0;
    std::uint64_t rdma_reads_served = 0;
    /// Protocol ACKs plus the ack_req replies sent with the protocol off.
    std::uint64_t acks_sent = 0;
    /// Includes the PSN gaps counted (not dropped) with the protocol off.
    std::uint64_t rc_out_of_order = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t reassembly_errors = 0;
    std::uint64_t reconfigs_applied = 0;
    std::uint64_t reconfigs_rejected = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void on_packet(ib::Packet&& pkt);
  void handle_mad_packet(const ib::Packet& pkt);
  void handle_data_packet(ib::Packet&& pkt);
  void apply_rdma_write(const ib::Packet& pkt);
  /// `duplicate` re-serves a retransmitted request: the response is rebuilt
  /// and resent but no delivery counters advance (exactly-once accounting).
  void serve_rdma_read(const ib::Packet& pkt, bool duplicate = false);
  void complete_rdma_read(const ib::Packet& pkt);
  void maybe_send_ack(const ib::Packet& pkt);
  IBSEC_HOT void track_rc_psn(const ib::Packet& pkt, QueuePair& qp);
  // RC reliability: sender side.
  IBSEC_HOT void rc_submit(QueuePair& qp, ib::Packet&& pkt);
  IBSEC_HOT void rc_transmit(QueuePair& qp, ib::Packet&& pkt);
  void rc_release_pending(QueuePair& qp);
  void arm_rc_timer(QueuePair& qp);
  void on_rc_timeout(ib::Qpn qpn, std::uint64_t generation);
  void rc_retransmit(QueuePair& qp, ib::Psn from_psn);
  void rc_fail(QueuePair& qp);
  IBSEC_HOT void handle_rc_ack(const ib::Packet& pkt);
  /// Returns how many window entries the cumulative (N)ACK retired — the
  /// spoof-accounting in handle_rc_ack needs to know whether a forged
  /// control packet actually cleared anything.
  IBSEC_HOT std::size_t rc_ack_through(QueuePair& qp, ib::Psn psn,
                                       bool inclusive);
  void rc_on_progress(QueuePair& qp);
  void rc_on_read_response(const ib::Packet& pkt);
  // RC reliability: receiver side.
  void schedule_rc_ack(QueuePair& qp, bool force);
  void send_rc_ack(QueuePair& qp);
  void send_rc_nak(QueuePair& qp);
  /// Lazily-resolved "ca.<n>.qp.<qpn>.dropped_bad_qkey" handle.
  obs::Counter& qkey_drop_counter(const QueuePair& qp);
  /// Cold lazy resolver for "ca.<n>.rc.spoofed_control_accepted": keeps the
  /// name assembly out of the IBSEC_HOT ACK-processing path.
  obs::Counter& rc_spoofed_counter();
  /// Signs (if an authenticator applies) or finalizes, then sends.
  void sign_and_send(ib::Packet&& pkt);
  bool handle_port_reconfigure(const Mad& mad);
  /// Builds the common skeleton (LRH/BTH, VL/SL from the traffic class).
  /// `created_at` < 0 stamps "now"; sources that model a pre-send pipeline
  /// stage (MAC computation) pass the earlier message-creation time so the
  /// lifecycle trace's create event matches meta.created_at.
  ib::Packet make_packet(ib::PacketMeta::TrafficClass tclass, int dst_node,
                         ib::PKeyValue pkey, SimTime created_at = -1);
  /// Records a decision on `pkt` made at this CA (sim::Simulator::record).
  IBSEC_HOT void record(obs::Decision kind, obs::Counter& counter,
                        const ib::Packet& pkt, std::int64_t a0 = 0);

  fabric::Fabric& fabric_;
  int node_;
  PkiDirectory& pki_;
  crypto::CtrDrbg drbg_;
  crypto::RsaKeyPair keypair_;

  ib::PartitionTable partition_table_;
  ib::NodeKeys node_keys_;
  ib::MemoryRegionTable memory_table_;
  // Every CA-side table below is key-ordered (std::map): any future
  // traversal — QP audits, snapshot dumps, bulk teardown — is then a
  // deterministic function of the keys, never of hash-bucket layout. These
  // tables are small and off the per-packet hot path (lookups are
  // per-message or lazily cached), so the O(log n) cost is noise.
  std::map<ib::RKeyValue, std::vector<std::uint8_t>> memory_;

  std::map<ib::Qpn, QueuePair> qps_;
  ib::Qpn next_qpn_ = 2;  // 0/1 reserved for management

  std::vector<MadHandler> mad_handlers_;
  int sm_node_ = -1;
  PacketAuthenticator* authenticator_ = nullptr;
  ReceiveHandler receive_handler_;
  ReadCompletionHandler read_handler_;
  MessageHandler message_handler_;
  DeliveryProbe probe_;
  RcConfig rc_config_;
  RcErrorHandler rc_error_handler_;
  // RC reassembly: per local QP, the partial message being received.
  struct Reassembly {
    bool active = false;
    std::vector<std::uint8_t> data;
  };
  std::map<ib::Qpn, Reassembly> reassembly_;
  // Outstanding RDMA READs keyed by (local QPN, request PSN).
  std::map<std::pair<ib::Qpn, ib::Psn>, std::pair<std::uint64_t, std::uint32_t>>
      outstanding_reads_;
  std::map<std::uint32_t, std::uint32_t> port_attributes_;
  Counters counters_;
  std::uint64_t next_message_id_ = 1;

  RetireObs retire_;
  RcObs rc_obs_;
  /// Lazily-created per-QP Q_Key-violation counters.
  std::map<ib::Qpn, obs::Counter*> qkey_drop_obs_;
};

}  // namespace ibsec::transport
