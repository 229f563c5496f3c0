// Security subsystem: partition-level and QP-level key management flows,
// the ICRC-as-MAC authentication engine, on-demand policy, downgrade
// resistance, and replay protection.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "security/auth_engine.h"
#include "security/partition_key_manager.h"
#include "security/qp_key_manager.h"
#include "security/replay_window.h"
#include "transport/subnet_manager.h"

namespace ibsec::security {
namespace {

using ib::PacketMeta;
using transport::ChannelAdapter;
using transport::ServiceType;

// The bytes the Authentication Tag covers, as AuthEngine hashes them.
std::vector<std::uint8_t> covered(const ib::Packet& pkt) {
  std::vector<std::uint8_t> out;
  pkt.icrc_covered_into(out);
  return out;
}

struct SecurityFixture : public ::testing::Test {
  SecurityFixture() {
    fabric::FabricConfig cfg;
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    fabric = std::make_unique<fabric::Fabric>(cfg);
    for (int node = 0; node < 4; ++node) {
      cas.push_back(std::make_unique<ChannelAdapter>(*fabric, node, pki, 77,
                                                     /*rsa_bits=*/256));
    }
    std::vector<ChannelAdapter*> ptrs;
    for (auto& ca : cas) ptrs.push_back(ca.get());
    sm = std::make_unique<transport::SubnetManager>(*fabric, ptrs, 0, 77);
  }

  void run() { fabric->simulator().run(); }

  transport::PkiDirectory pki;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<ChannelAdapter>> cas;
  std::unique_ptr<transport::SubnetManager> sm;
};

// --- ReplayWindow (unit) -----------------------------------------------------

TEST(ReplayWindow, AcceptsFreshRejectsDuplicate) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(100));
  EXPECT_FALSE(w.accept(100));
  EXPECT_TRUE(w.accept(101));
  EXPECT_FALSE(w.accept(101));
  EXPECT_FALSE(w.accept(100));
}

TEST(ReplayWindow, AcceptsOutOfOrderWithinWindow) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(100));
  EXPECT_TRUE(w.accept(105));
  EXPECT_TRUE(w.accept(103));  // late but fresh
  EXPECT_FALSE(w.accept(103));
  EXPECT_TRUE(w.accept(101));
}

TEST(ReplayWindow, RejectsAncientPsns) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(0));
  EXPECT_TRUE(w.accept(1000));
  EXPECT_FALSE(w.accept(1000 - ReplayWindow::kWindowBits));
  EXPECT_FALSE(w.accept(1));
}

TEST(ReplayWindow, SlidesForwardInBigJumps) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(5));
  EXPECT_TRUE(w.accept(100000));
  EXPECT_FALSE(w.accept(100000));
  EXPECT_TRUE(w.accept(100001));
  EXPECT_FALSE(w.accept(5));  // far behind now
}

TEST(ReplayWindow, HandlesPsnWraparound) {
  ReplayWindow w;
  EXPECT_TRUE(w.accept(ib::kPsnMask - 1));
  EXPECT_TRUE(w.accept(ib::kPsnMask));
  EXPECT_TRUE(w.accept(0));  // wrap: treated as forward
  EXPECT_TRUE(w.accept(1));
  EXPECT_FALSE(w.accept(0));
  EXPECT_FALSE(w.accept(ib::kPsnMask));  // now just behind, already seen
}

// --- Partition-level key management -------------------------------------------

TEST_F(SecurityFixture, PartitionSecretDistributedViaMads) {
  std::vector<std::unique_ptr<PartitionKeyManager>> pkms;
  for (int node = 0; node < 4; ++node) {
    pkms.push_back(std::make_unique<PartitionKeyManager>(*cas[node]));
  }
  sm->create_partition(0x8111, {0, 1, 3});
  sm->distribute_partition_secret(0x8111, crypto::AuthAlgorithm::kUmac32);
  run();
  EXPECT_TRUE(pkms[0]->has_secret(0x8111));  // local SM node delivery
  EXPECT_TRUE(pkms[1]->has_secret(0x8111));
  EXPECT_TRUE(pkms[3]->has_secret(0x8111));
  EXPECT_FALSE(pkms[2]->has_secret(0x8111));  // non-member got nothing
  EXPECT_EQ(pkms[1]->unwrap_failures(), 0u);
}

TEST_F(SecurityFixture, PartitionMembersDeriveSameMac) {
  PartitionKeyManager a(*cas[1]), b(*cas[2]);
  sm->create_partition(0x8222, {1, 2});
  sm->distribute_partition_secret(0x8222, crypto::AuthAlgorithm::kUmac32);
  run();
  ib::Packet pkt;
  pkt.bth.pkey = 0x8222;
  pkt.payload = ascii_bytes("shared partition message");
  pkt.set_lengths();
  const auto* mac_a = a.tx_mac(pkt);
  const auto* mac_b = b.rx_mac(pkt);
  ASSERT_NE(mac_a, nullptr);
  ASSERT_NE(mac_b, nullptr);
  EXPECT_EQ(mac_a->tag32(covered(pkt), 9), mac_b->tag32(covered(pkt), 9));
}

TEST_F(SecurityFixture, PartitionLookupIgnoresMembershipBit) {
  PartitionKeyManager pkm(*cas[0]);
  pkm.install(0x8111, crypto::AuthAlgorithm::kUmac32,
              ascii_bytes("0123456789abcdef"));
  ib::Packet pkt;
  pkt.bth.pkey = 0x0111;  // limited-member variant, same index
  EXPECT_NE(pkm.rx_mac(pkt), nullptr);
  pkt.bth.pkey = 0x8112;
  EXPECT_EQ(pkm.rx_mac(pkt), nullptr);
}

TEST_F(SecurityFixture, CorruptedBlobCountsUnwrapFailure) {
  PartitionKeyManager pkm(*cas[1]);
  transport::Mad mad;
  mad.type = transport::MadType::kKeyDistribution;
  mad.pkey = 0x8123;
  mad.auth_alg = crypto::AuthAlgorithm::kUmac32;
  mad.blob.assign(32, 0x42);  // not a valid RSA ciphertext
  cas[0]->send_mad(1, mad);
  run();
  EXPECT_EQ(pkm.unwrap_failures(), 1u);
  EXPECT_FALSE(pkm.has_secret(0x8123));
}

// --- QP-level key management -----------------------------------------------

TEST_F(SecurityFixture, RcSecretEstablishedBySender) {
  QpKeyManager km0(*cas[0]), km2(*cas[2]);
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[2]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 2, b.qpn);
  cas[2]->bind_rc(b.qpn, 0, a.qpn);
  ASSERT_TRUE(km0.establish_rc(a.qpn, 2, b.qpn));
  run();
  EXPECT_EQ(km0.rc_secret_count(), 1u);
  EXPECT_EQ(km2.rc_secret_count(), 1u);

  // Sender's tx MAC and receiver's rx MAC agree on a real packet.
  ib::Packet pkt;
  pkt.bth.dest_qp = b.qpn;
  pkt.meta.src_qp = a.qpn;
  pkt.payload = ascii_bytes("rc payload");
  pkt.set_lengths();
  const auto* tx = km0.tx_mac(pkt);
  const auto* rx = km2.rx_mac(pkt);
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(tx->tag32(covered(pkt), 0), rx->tag32(covered(pkt), 0));
}

TEST_F(SecurityFixture, UdQkeyExchangeDeliversKeyAndSecret) {
  QpKeyManager km0(*cas[0]), km3(*cas[3]);
  auto& requester = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  auto& responder = cas[3]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);

  int ready = 0;
  km0.add_qkey_ready_callback(
      [&](int node, ib::Qpn qp, ib::QKeyValue qkey) {
        ++ready;
        EXPECT_EQ(node, 3);
        EXPECT_EQ(qp, responder.qpn);
        EXPECT_EQ(qkey, responder.qkey);
      });
  km0.request_qkey(requester.qpn, 3, responder.qpn);
  run();
  EXPECT_EQ(ready, 1);
  EXPECT_EQ(km0.qkey_for(requester.qpn, 3, responder.qpn), responder.qkey);
  EXPECT_EQ(km0.ud_tx_secret_count(), 1u);
  EXPECT_EQ(km3.ud_rx_secret_count(), 1u);

  // The pair agrees on the per-request secret.
  ib::Packet pkt;
  pkt.lrh.slid = fabric->lid_of_node(0);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.dest_qp = responder.qpn;
  pkt.deth = ib::Deth{responder.qkey, requester.qpn};
  pkt.meta.src_qp = requester.qpn;
  pkt.meta.dst_node = 3;
  pkt.payload = ascii_bytes("ud payload");
  pkt.set_lengths();
  const auto* tx = km0.tx_mac(pkt);
  const auto* rx = km3.rx_mac(pkt);
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(tx->tag32(covered(pkt), 5), rx->tag32(covered(pkt), 5));
}

TEST_F(SecurityFixture, EachRequesterGetsDistinctSecret) {
  // Paper Figure 3: one Q_Key, several secrets, indexed by (Q_Key, S_QP).
  QpKeyManager km0(*cas[0]), km1(*cas[1]), km3(*cas[3]);
  auto& r0 = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  auto& r1 = cas[1]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  auto& responder = cas[3]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  km0.request_qkey(r0.qpn, 3, responder.qpn);
  km1.request_qkey(r1.qpn, 3, responder.qpn);
  run();
  EXPECT_EQ(km3.ud_rx_secret_count(), 2u);

  // The two requesters' secrets differ: node 0's MAC cannot validate
  // node 1's traffic even though both talk to the same Q_Key.
  ib::Packet pkt;
  pkt.bth.dest_qp = responder.qpn;
  pkt.payload = ascii_bytes("cross check");
  pkt.set_lengths();
  pkt.meta.dst_node = 3;
  pkt.meta.src_qp = r0.qpn;
  pkt.deth = ib::Deth{responder.qkey, r0.qpn};
  const auto* mac0 = km0.tx_mac(pkt);
  pkt.meta.src_qp = r1.qpn;
  pkt.deth->src_qp = r1.qpn;
  const auto* mac1 = km1.tx_mac(pkt);
  ASSERT_NE(mac0, nullptr);
  ASSERT_NE(mac1, nullptr);
  EXPECT_NE(mac0->tag32(covered(pkt), 1), mac1->tag32(covered(pkt), 1));
}

TEST_F(SecurityFixture, UnknownStreamsHaveNoMac) {
  QpKeyManager km(*cas[0]);
  ib::Packet pkt;
  pkt.meta.src_qp = 99;
  EXPECT_EQ(km.tx_mac(pkt), nullptr);
  pkt.bth.dest_qp = 99;
  EXPECT_EQ(km.rx_mac(pkt), nullptr);
}

// --- AuthEngine end-to-end ---------------------------------------------------

struct AuthFixture : public SecurityFixture {
  AuthFixture() {
    for (int node = 0; node < 4; ++node) {
      engines.push_back(std::make_unique<AuthEngine>(*cas[node]));
      pkms.push_back(std::make_unique<PartitionKeyManager>(*cas[node]));
      engines.back()->set_key_manager(pkms.back().get());
    }
    sm->create_partition(kPkey, {0, 1, 2, 3});
    sm->distribute_partition_secret(kPkey, crypto::AuthAlgorithm::kUmac32);
    fabric->simulator().run();
  }

  static constexpr ib::PKeyValue kPkey = 0x8100;

  void enable_auth_everywhere() {
    for (auto& engine : engines) engine->enable_for_partition(kPkey);
  }

  std::vector<std::unique_ptr<AuthEngine>> engines;
  std::vector<std::unique_ptr<PartitionKeyManager>> pkms;
};

TEST_F(AuthFixture, SignedTrafficDeliversAndVerifies) {
  enable_auth_everywhere();
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  auto& src = cas[0]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  int delivered = 0;
  cas[1]->set_receive_handler(
      [&](const ib::Packet& pkt, const transport::QueuePair&) {
        ++delivered;
        EXPECT_NE(pkt.bth.resv8a, 0);  // tagged on the wire
        EXPECT_FALSE(pkt.icrc_valid());  // the field is a MAC, not a CRC
      });
  cas[0]->post_send(src.qpn, ascii_bytes("authenticated"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(engines[0]->stats().signed_packets, 1u);
  EXPECT_EQ(engines[1]->stats().verified_ok, 1u);
}

TEST_F(AuthFixture, UnauthenticatedPacketRejectedUnderPolicy) {
  enable_auth_everywhere();
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  // A legacy/compromised sender without the secret sends plain ICRC.
  ib::Packet pkt;
  pkt.lrh.vl = fabric::kBestEffortVl;
  pkt.lrh.slid = fabric->lid_of_node(2);
  pkt.lrh.dlid = fabric->lid_of_node(1);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = kPkey;  // captured P_Key!
  pkt.bth.dest_qp = dst.qpn;
  pkt.deth = ib::Deth{dst.qkey, 9};  // captured Q_Key!
  pkt.payload = ascii_bytes("forged");
  pkt.finalize();
  cas[2]->inject_raw(std::move(pkt));
  run();
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 0u);
  EXPECT_EQ(cas[1]->retire_obs().auth_missing->value(), 1u);
}

TEST_F(AuthFixture, ForgedTagRejected) {
  enable_auth_everywhere();
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  ib::Packet pkt;
  pkt.lrh.vl = fabric::kBestEffortVl;
  pkt.lrh.slid = fabric->lid_of_node(2);
  pkt.lrh.dlid = fabric->lid_of_node(1);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = kPkey;
  pkt.bth.resv8a =
      static_cast<std::uint8_t>(crypto::AuthAlgorithm::kUmac32);
  pkt.bth.dest_qp = dst.qpn;
  pkt.deth = ib::Deth{dst.qkey, 9};
  pkt.payload = ascii_bytes("forged with guessed tag");
  pkt.set_lengths();
  pkt.icrc = 0x12345678;  // attacker's guess
  pkt.refresh_vcrc();
  cas[2]->inject_raw(std::move(pkt));
  run();
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 0u);
  EXPECT_EQ(cas[1]->retire_obs().auth_rejected->value(), 1u);
  EXPECT_EQ(engines[1]->stats().bad_tag, 1u);
}

TEST_F(AuthFixture, OnDemandDisableRestoresPlainIcrc) {
  // Authentication can be turned off per partition at any time (sec. 5.1).
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  auto& src = cas[0]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  int delivered = 0;
  cas[1]->set_receive_handler(
      [&](const ib::Packet& pkt, const transport::QueuePair&) {
        ++delivered;
        EXPECT_EQ(pkt.bth.resv8a, 0);
        EXPECT_TRUE(pkt.icrc_valid());
      });
  // Policy disabled: traffic flows with plain ICRC despite keys existing.
  cas[0]->post_send(src.qpn, ascii_bytes("plain"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(engines[1]->stats().plain_accepted, 1u);
}

TEST_F(AuthFixture, EnableThenDisableMidStream) {
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  auto& src = cas[0]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  std::vector<std::uint8_t> resv8as;
  cas[1]->set_receive_handler(
      [&](const ib::Packet& pkt, const transport::QueuePair&) {
        resv8as.push_back(pkt.bth.resv8a);
      });
  cas[0]->post_send(src.qpn, ascii_bytes("one"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  enable_auth_everywhere();
  cas[0]->post_send(src.qpn, ascii_bytes("two"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  for (auto& engine : engines) engine->disable_for_partition(kPkey);
  cas[0]->post_send(src.qpn, ascii_bytes("three"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  ASSERT_EQ(resv8as.size(), 3u);
  EXPECT_EQ(resv8as[0], 0);
  EXPECT_NE(resv8as[1], 0);
  EXPECT_EQ(resv8as[2], 0);
}

TEST_F(AuthFixture, AlgorithmDowngradeFailsClosed) {
  enable_auth_everywhere();
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  // Claim HMAC-MD5 while the installed secret is UMAC: must be rejected,
  // never "fall back".
  ib::Packet pkt;
  pkt.lrh.vl = fabric::kBestEffortVl;
  pkt.lrh.slid = fabric->lid_of_node(2);
  pkt.lrh.dlid = fabric->lid_of_node(1);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = kPkey;
  pkt.bth.resv8a =
      static_cast<std::uint8_t>(crypto::AuthAlgorithm::kHmacMd5);
  pkt.bth.dest_qp = dst.qpn;
  pkt.deth = ib::Deth{dst.qkey, 9};
  pkt.payload = ascii_bytes("downgrade attempt");
  pkt.set_lengths();
  pkt.icrc = 0;
  pkt.refresh_vcrc();
  cas[2]->inject_raw(std::move(pkt));
  run();
  EXPECT_EQ(cas[1]->retire_obs().auth_rejected->value(), 1u);
}

TEST_F(AuthFixture, ReplayRejectedWithWindowAcceptedWithout) {
  enable_auth_everywhere();
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  auto& src = cas[0]->create_qp(ServiceType::kUnreliableDatagram, kPkey);

  // Capture a legitimate signed packet off the wire.
  std::optional<ib::Packet> captured;
  cas[1]->set_receive_handler(
      [&](const ib::Packet& pkt, const transport::QueuePair&) {
        captured = pkt;
      });
  cas[0]->post_send(src.qpn, ascii_bytes("capture me"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  ASSERT_TRUE(captured.has_value());

  // Without replay protection the verbatim replay is accepted (sec. 7).
  ib::Packet replay = *captured;
  replay.meta = PacketMeta{};
  replay.meta.src_node = 2;
  replay.meta.dst_node = 1;
  cas[2]->inject_raw(ib::Packet(replay));
  run();
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 2u);

  // With the PSN window, the same replay is rejected.
  engines[1]->set_replay_protection(true);
  cas[2]->inject_raw(ib::Packet(replay));  // replays PSN 0 again
  run();
  // The window saw PSN 0 during this (third) delivery attempt only, so it
  // is accepted once and rejected on the next replay.
  cas[2]->inject_raw(ib::Packet(replay));
  run();
  EXPECT_EQ(engines[1]->stats().replays, 1u);
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 3u);
}

TEST_F(AuthFixture, KeyRotationGraceWindow) {
  enable_auth_everywhere();
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, kPkey);
  auto& src = cas[0]->create_qp(ServiceType::kUnreliableDatagram, kPkey);

  // Capture a packet signed under epoch 0.
  std::optional<ib::Packet> old_epoch_pkt;
  cas[1]->set_receive_handler(
      [&](const ib::Packet& pkt, const transport::QueuePair&) {
        if (!old_epoch_pkt) old_epoch_pkt = pkt;
      });
  cas[0]->post_send(src.qpn, ascii_bytes("epoch zero"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  ASSERT_TRUE(old_epoch_pkt.has_value());

  // Rotate: SM distributes a fresh secret for the same partition.
  sm->rotate_partition_secret(kPkey, crypto::AuthAlgorithm::kUmac32);
  run();
  EXPECT_EQ(pkms[1]->epoch_of(kPkey), 1u);

  // An old-epoch packet (e.g. in flight during the rotation) still lands,
  // accounted under the grace window.
  ib::Packet replayed = *old_epoch_pkt;
  replayed.meta = PacketMeta{};
  cas[0]->inject_raw(std::move(replayed));
  run();
  EXPECT_EQ(engines[1]->stats().previous_epoch_accepted, 1u);
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 2u);

  // New traffic signs under epoch 1 and verifies against the current key.
  cas[0]->post_send(src.qpn, ascii_bytes("epoch one"),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                    dst.qkey);
  run();
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 3u);

  // A second rotation expires epoch 0 entirely.
  sm->rotate_partition_secret(kPkey, crypto::AuthAlgorithm::kUmac32);
  run();
  EXPECT_EQ(pkms[1]->epoch_of(kPkey), 2u);
  ib::Packet stale = *old_epoch_pkt;
  stale.meta = PacketMeta{};
  cas[0]->inject_raw(std::move(stale));
  run();
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 3u);  // rejected now
  EXPECT_GE(engines[1]->stats().bad_tag, 1u);
}

TEST_F(SecurityFixture, RotationEvictsCompromisedKeyHolder) {
  // The operational recipe for a compromised member: shrink the membership
  // and re-key. A stolen *current* secret loses value after two rotations
  // (one grace epoch), and an evicted node never receives new epochs.
  PartitionKeyManager keys0(*cas[0]), keys1(*cas[1]), keys2(*cas[2]);
  sm->create_partition(0x8400, {0, 1, 2});
  sm->distribute_partition_secret(0x8400, crypto::AuthAlgorithm::kUmac32);
  run();
  EXPECT_TRUE(keys2.has_secret(0x8400));  // node 2 holds epoch 0

  // Node 2 is found compromised: SM re-keys the partition for {0,1} only.
  sm->create_partition(0x8400, {0, 1});  // membership shrinks
  sm->rotate_partition_secret(0x8400, crypto::AuthAlgorithm::kUmac32);
  run();
  EXPECT_EQ(keys0.epoch_of(0x8400), 1u);
  EXPECT_EQ(keys1.epoch_of(0x8400), 1u);
  EXPECT_EQ(keys2.epoch_of(0x8400), 0u);  // evicted: stuck at epoch 0

  // The members' current MACs agree with each other but not with node 2's.
  ib::Packet pkt;
  pkt.bth.pkey = 0x8400;
  pkt.payload = ascii_bytes("post-rotation");
  pkt.set_lengths();
  const auto bytes = covered(pkt);
  ASSERT_NE(keys0.tx_mac(pkt), nullptr);
  ASSERT_NE(keys2.tx_mac(pkt), nullptr);
  EXPECT_EQ(keys0.tx_mac(pkt)->tag32(bytes, 1),
            keys1.rx_mac(pkt)->tag32(bytes, 1));
  EXPECT_NE(keys2.tx_mac(pkt)->tag32(bytes, 1),
            keys1.rx_mac(pkt)->tag32(bytes, 1));

  // After one more rotation even the grace window excludes epoch 0.
  sm->rotate_partition_secret(0x8400, crypto::AuthAlgorithm::kUmac32);
  run();
  EXPECT_NE(keys2.tx_mac(pkt)->tag32(bytes, 1),
            keys1.rx_mac(pkt)->tag32(bytes, 1));
  EXPECT_NE(keys2.tx_mac(pkt)->tag32(bytes, 1),
            keys1.rx_mac_previous(pkt)->tag32(bytes, 1));
}

TEST_F(AuthFixture, NoKeyVerdictWhenSecretMissing) {
  // Partition 0x8300 has auth policy but node 1 never received a secret.
  for (auto& engine : engines) engine->enable_for_partition(0x8300);
  sm->create_partition(0x8300, {0, 1});
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, 0x8300);
  ib::Packet pkt;
  pkt.lrh.vl = fabric::kBestEffortVl;
  pkt.lrh.slid = fabric->lid_of_node(0);
  pkt.lrh.dlid = fabric->lid_of_node(1);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = 0x8300;
  pkt.bth.resv8a = static_cast<std::uint8_t>(crypto::AuthAlgorithm::kUmac32);
  pkt.bth.dest_qp = dst.qpn;
  pkt.deth = ib::Deth{dst.qkey, 3};
  pkt.payload = ascii_bytes("no key installed");
  pkt.set_lengths();
  pkt.refresh_vcrc();
  cas[0]->inject_raw(std::move(pkt));
  run();
  EXPECT_EQ(engines[1]->stats().no_key, 1u);
  EXPECT_EQ(cas[1]->retire_obs().auth_rejected->value(), 1u);
}

}  // namespace
}  // namespace ibsec::security
