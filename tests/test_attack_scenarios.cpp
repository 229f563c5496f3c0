// Table 3 as executable scenarios: each IBA key's exposure is exploited to
// demonstrate the vulnerability, then the paper's countermeasure is enabled
// and the same attack is shown to fail.
//
//   M_Key  — leaked key lets an attacker reconfigure any port.
//   B_Key  — leaked key lets an attacker rewrite hardware (baseboard) state.
//   P_Key  — leaked key breaks partition membership restriction.
//   Q_Key  — leaked key (plus P_Key) lets an attacker inject into a QP.
//   R_Key  — leaked key (plus P/Q keys) lets an attacker RDMA-write victim
//            memory with no QP intervention.
//   Replay — a captured authentic packet re-injected verbatim (sec. 7).
#include <gtest/gtest.h>

#include "common/hex.h"
#include "security/auth_engine.h"
#include "security/partition_key_manager.h"
#include "security/qp_key_manager.h"
#include "transport/subnet_manager.h"

namespace ibsec {
namespace {

using ib::PacketMeta;
using transport::ChannelAdapter;
using transport::Mad;
using transport::MadType;
using transport::ServiceType;

struct AttackFixture : public ::testing::Test {
  static constexpr ib::PKeyValue kPkey = 0x8100;
  static constexpr int kVictim = 1;
  static constexpr int kPeer = 3;
  static constexpr int kAttacker = 2;  // compromised node, NOT in partition

  AttackFixture() {
    fabric::FabricConfig cfg;
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    fabric = std::make_unique<fabric::Fabric>(cfg);
    for (int node = 0; node < 4; ++node) {
      cas.push_back(std::make_unique<ChannelAdapter>(*fabric, node, pki, 55,
                                                     /*rsa_bits=*/256));
    }
    std::vector<ChannelAdapter*> ptrs;
    for (auto& ca : cas) ptrs.push_back(ca.get());
    sm = std::make_unique<transport::SubnetManager>(*fabric, ptrs, 0, 55);
    sm->assign_m_keys();
    sm->create_partition(kPkey, {0, kVictim, kPeer});
  }

  void run() { fabric->simulator().run(); }

  /// Installs partition-level authentication on every partition member.
  void deploy_partition_auth() {
    for (int node = 0; node < 4; ++node) {
      engines.push_back(std::make_unique<security::AuthEngine>(*cas[node]));
      pkms.push_back(
          std::make_unique<security::PartitionKeyManager>(*cas[node]));
      engines.back()->set_key_manager(pkms.back().get());
      engines.back()->enable_for_partition(kPkey);
    }
    sm->distribute_partition_secret(kPkey, crypto::AuthAlgorithm::kUmac32);
    run();
    // The attacker's engine got no secret: it is outside the partition.
  }

  ib::Packet attacker_packet(ib::Qpn dst_qp, ib::QKeyValue qkey,
                             std::string_view payload) {
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.slid = fabric->lid_of_node(kAttacker);
    pkt.lrh.dlid = fabric->lid_of_node(kVictim);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = kPkey;  // the captured P_Key
    pkt.bth.dest_qp = dst_qp;
    pkt.deth = ib::Deth{qkey, 99};
    pkt.payload = ascii_bytes(payload);
    pkt.finalize();
    return pkt;
  }

  transport::PkiDirectory pki;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<ChannelAdapter>> cas;
  std::unique_ptr<transport::SubnetManager> sm;
  std::vector<std::unique_ptr<security::AuthEngine>> engines;
  std::vector<std::unique_ptr<security::PartitionKeyManager>> pkms;
};

// --- Table 3 row 1: M_Key ----------------------------------------------------

TEST_F(AttackFixture, MKeyExposureEnablesReconfiguration) {
  // "Since M_Key controls almost everything in a subnet, leaking M_Key
  // becomes a serious problem."
  const auto leaked = sm->m_key_of(kVictim);  // captured off the wire
  Mad mad;
  mad.type = MadType::kPortReconfigure;
  mad.attribute = 1;  // e.g. port state
  mad.value = 0xDEAD;
  mad.m_key = leaked;
  cas[kAttacker]->send_mad(kVictim, mad);
  run();
  // Vulnerability demonstrated: plaintext key == full management authority.
  EXPECT_EQ(cas[kVictim]->counters().reconfigs_applied, 1u);
  EXPECT_EQ(cas[kVictim]->port_attribute(1), 0xDEADu);
}

TEST_F(AttackFixture, WithoutMKeyReconfigurationFails) {
  Mad mad;
  mad.type = MadType::kPortReconfigure;
  mad.attribute = 1;
  mad.value = 0xDEAD;
  mad.m_key = 0x1234;  // guess
  cas[kAttacker]->send_mad(kVictim, mad);
  run();
  EXPECT_EQ(cas[kVictim]->counters().reconfigs_rejected, 1u);
  EXPECT_EQ(cas[kVictim]->port_attribute(1), 0u);
}

// --- Table 3 row 2: B_Key ----------------------------------------------------

TEST_F(AttackFixture, BKeyExposureEnablesHardwareReconfiguration) {
  // "A malicious user having B_Key can change hardware configuration."
  const auto leaked = cas[kVictim]->node_keys().b_key;
  Mad mad;
  mad.type = MadType::kPortReconfigure;
  mad.attribute = ChannelAdapter::kBaseboardAttributeBase + 2;  // e.g. power
  mad.value = 0;
  mad.m_key = leaked;
  cas[kAttacker]->send_mad(kVictim, mad);
  run();
  EXPECT_EQ(cas[kVictim]->counters().reconfigs_applied, 1u);
}

// --- Table 3 row 3: P_Key ----------------------------------------------------

TEST_F(AttackFixture, PKeyExposureBreaksMembership) {
  // "Any user acquiring a P_Key of a partition can break membership
  // restriction of the partition."
  auto& victim_qp = cas[kVictim]->create_qp(ServiceType::kUnreliableDatagram,
                                            kPkey);
  int delivered = 0;
  cas[kVictim]->set_receive_handler(
      [&](const ib::Packet&, const transport::QueuePair&) { ++delivered; });
  cas[kAttacker]->inject_raw(
      attacker_packet(victim_qp.qpn, victim_qp.qkey, "outsider data"));
  run();
  // Vulnerability: the packet is accepted although node 2 is no member.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(cas[kVictim]->retire_obs().pkey_violation->value(), 0u);
}

TEST_F(AttackFixture, AuthenticationClosesPKeyHole) {
  deploy_partition_auth();
  auto& victim_qp = cas[kVictim]->create_qp(ServiceType::kUnreliableDatagram,
                                            kPkey);
  int delivered = 0;
  cas[kVictim]->set_receive_handler(
      [&](const ib::Packet&, const transport::QueuePair&) { ++delivered; });
  // Attacker still owns the P_Key and Q_Key but not the partition secret.
  cas[kAttacker]->inject_raw(
      attacker_packet(victim_qp.qpn, victim_qp.qkey, "outsider data"));
  run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(cas[kVictim]->retire_obs().auth_missing->value(), 1u);
  // Legitimate member traffic still flows.
  auto& peer_qp = cas[kPeer]->create_qp(ServiceType::kUnreliableDatagram,
                                        kPkey);
  cas[kPeer]->post_send(peer_qp.qpn, ascii_bytes("member data"),
                        PacketMeta::TrafficClass::kBestEffort, kVictim,
                        victim_qp.qpn, victim_qp.qkey);
  run();
  EXPECT_EQ(delivered, 1);
}

// --- Table 3 row 4: Q_Key ----------------------------------------------------

TEST_F(AttackFixture, QKeyExposureDisruptsQp) {
  // "If a Q_Key is exposed, the communication between two QPs may be
  // disrupted ... possible only when the partition's P_Key is available."
  auto& victim_qp = cas[kVictim]->create_qp(ServiceType::kUnreliableDatagram,
                                            kPkey);
  int delivered = 0;
  cas[kVictim]->set_receive_handler(
      [&](const ib::Packet&, const transport::QueuePair&) { ++delivered; });

  // With only the P_Key (wrong Q_Key) the QP is protected...
  cas[kAttacker]->inject_raw(
      attacker_packet(victim_qp.qpn, victim_qp.qkey ^ 1, "bad qkey"));
  run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(cas[kVictim]->retire_obs().qkey_violation->value(), 1u);

  // ...but both plaintext keys together walk right in.
  cas[kAttacker]->inject_raw(
      attacker_packet(victim_qp.qpn, victim_qp.qkey, "full key set"));
  run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(AttackFixture, AuthenticationClosesQKeyHole) {
  deploy_partition_auth();
  auto& victim_qp = cas[kVictim]->create_qp(ServiceType::kUnreliableDatagram,
                                            kPkey);
  int delivered = 0;
  cas[kVictim]->set_receive_handler(
      [&](const ib::Packet&, const transport::QueuePair&) { ++delivered; });
  cas[kAttacker]->inject_raw(
      attacker_packet(victim_qp.qpn, victim_qp.qkey, "full key set"));
  run();
  EXPECT_EQ(delivered, 0);
}

// --- Table 3 row 5: R_Key / L_Key -------------------------------------------

struct RdmaAttackFixture : public AttackFixture {
  static constexpr ib::RKeyValue kRkey = 0xC0DE;

  RdmaAttackFixture() {
    // Victim exposes an RDMA-writable region to its legitimate RC peer.
    ib::MemoryRegion region;
    region.va_base = 0x4000;
    region.length = 64;
    region.rkey = kRkey;
    region.remote_write = true;
    cas[kVictim]->register_memory(
        region, std::vector<std::uint8_t>(64, 0x00));
    auto& v = cas[kVictim]->create_qp(ServiceType::kReliableConnection, kPkey);
    auto& p = cas[kPeer]->create_qp(ServiceType::kReliableConnection, kPkey);
    cas[kVictim]->bind_rc(v.qpn, kPeer, p.qpn);
    cas[kPeer]->bind_rc(p.qpn, kVictim, v.qpn);
    victim_qpn = v.qpn;
    peer_qpn = p.qpn;
  }

  ib::Packet rdma_attack_packet() {
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.slid = fabric->lid_of_node(kAttacker);
    pkt.lrh.dlid = fabric->lid_of_node(kVictim);
    pkt.bth.opcode = ib::OpCode::kRcRdmaWriteOnly;
    pkt.bth.pkey = kPkey;      // captured P_Key
    pkt.bth.dest_qp = victim_qpn;
    pkt.reth = ib::Reth{0x4000, kRkey, 8};  // captured R_Key
    pkt.payload = ascii_bytes("OWNED!!!");
    pkt.finalize();
    return pkt;
  }

  ib::Qpn victim_qpn = 0;
  ib::Qpn peer_qpn = 0;
};

TEST_F(RdmaAttackFixture, RKeyExposureAllowsMemoryTampering) {
  // "If R_Key is available, the memory can be read or written without any
  // intervention of destination QP."
  cas[kAttacker]->inject_raw(rdma_attack_packet());
  run();
  EXPECT_EQ(cas[kVictim]->counters().rdma_writes_applied, 1u);
  const auto* memory = cas[kVictim]->memory_of(kRkey);
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ((*memory)[0], 'O');  // victim memory overwritten
}

TEST_F(RdmaAttackFixture, QpLevelAuthClosesRKeyHole) {
  // QP-level key management "helps remove the Memory Key threat" (sec. 4.3):
  // RDMA packets are authenticated with the per-connection secret.
  std::vector<std::unique_ptr<security::QpKeyManager>> kms;
  for (int node = 0; node < 4; ++node) {
    engines.push_back(std::make_unique<security::AuthEngine>(*cas[node]));
    kms.push_back(std::make_unique<security::QpKeyManager>(*cas[node]));
    engines.back()->set_key_manager(kms.back().get());
    engines.back()->enable_for_partition(kPkey);
  }
  kms[kPeer]->establish_rc(peer_qpn, kVictim, victim_qpn);
  run();

  // The attacker's forged RDMA write now fails authentication...
  cas[kAttacker]->inject_raw(rdma_attack_packet());
  run();
  EXPECT_EQ(cas[kVictim]->counters().rdma_writes_applied, 0u);
  const auto* memory = cas[kVictim]->memory_of(kRkey);
  EXPECT_EQ((*memory)[0], 0x00);  // memory intact

  // ...while the legitimate peer's RDMA write (signed per-QP) succeeds.
  ASSERT_TRUE(cas[kPeer]->post_rdma_write(
      peer_qpn, 0x4000, kRkey, ascii_bytes("good"),
      PacketMeta::TrafficClass::kBestEffort));
  run();
  EXPECT_EQ(cas[kVictim]->counters().rdma_writes_applied, 1u);
  EXPECT_EQ((*memory)[0], 'g');
}

// --- sec. 7: replay ------------------------------------------------------------

TEST_F(AttackFixture, CapturedPacketReplayAndDefence) {
  deploy_partition_auth();
  auto& victim_qp = cas[kVictim]->create_qp(ServiceType::kUnreliableDatagram,
                                            kPkey);
  auto& peer_qp = cas[kPeer]->create_qp(ServiceType::kUnreliableDatagram,
                                        kPkey);
  std::optional<ib::Packet> captured;
  cas[kVictim]->set_receive_handler(
      [&](const ib::Packet& pkt, const transport::QueuePair&) {
        if (!captured) captured = pkt;
      });
  cas[kPeer]->post_send(peer_qp.qpn, ascii_bytes("transfer $100"),
                        PacketMeta::TrafficClass::kBestEffort, kVictim,
                        victim_qp.qpn, victim_qp.qkey);
  run();
  ASSERT_TRUE(captured.has_value());

  // Replay the authentic packet verbatim: accepted (vulnerability, sec. 7).
  ib::Packet replay = *captured;
  replay.meta = PacketMeta{};
  cas[kAttacker]->inject_raw(ib::Packet(replay));
  run();
  EXPECT_EQ(cas[kVictim]->retire_obs().delivered->value(), 2u);

  // Arm the PSN replay window: the next replay is dropped.
  engines[kVictim]->set_replay_protection(true);
  cas[kAttacker]->inject_raw(ib::Packet(replay));  // seeds the window
  run();
  cas[kAttacker]->inject_raw(ib::Packet(replay));
  run();
  EXPECT_EQ(engines[kVictim]->stats().replays, 1u);
}

}  // namespace
}  // namespace ibsec
