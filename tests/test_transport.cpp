// Transport layer: channel adapters, QPs (RC + UD), end-node P_Key/Q_Key
// enforcement, traps, RDMA memory protection, MADs, and M_Key/B_Key-gated
// management.
#include <gtest/gtest.h>

#include <set>

#include "common/hex.h"
#include "transport/subnet_manager.h"

namespace ibsec::transport {
namespace {

using ib::PacketMeta;

struct TransportFixture : public ::testing::Test {
  TransportFixture() {
    fabric::FabricConfig cfg;
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    fabric = std::make_unique<fabric::Fabric>(cfg);
    for (int node = 0; node < 4; ++node) {
      cas.push_back(std::make_unique<ChannelAdapter>(*fabric, node, pki,
                                                     /*key_seed=*/42,
                                                     /*rsa_bits=*/256));
    }
    std::vector<ChannelAdapter*> ptrs;
    for (auto& ca : cas) ptrs.push_back(ca.get());
    sm = std::make_unique<SubnetManager>(*fabric, ptrs, /*sm_node=*/0, 42);
    sm->assign_m_keys();
  }

  void run() { fabric->simulator().run(); }

  transport::PkiDirectory pki;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<ChannelAdapter>> cas;
  std::unique_ptr<SubnetManager> sm;
};

TEST_F(TransportFixture, PkiHoldsEveryNode) {
  EXPECT_EQ(pki.size(), 4u);
  for (int node = 0; node < 4; ++node) {
    EXPECT_TRUE(pki.public_key_of(node).has_value());
  }
  EXPECT_FALSE(pki.public_key_of(99).has_value());
}

TEST_F(TransportFixture, WrapUnwrapBetweenNodes) {
  const auto secret = ascii_bytes("sixteen byte key");
  const auto wrapped = cas[0]->wrap_for(2, secret);
  ASSERT_TRUE(wrapped.has_value());
  const auto unwrapped = cas[2]->unwrap(*wrapped);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(*unwrapped, secret);
  // A different node's private key cannot recover it.
  const auto wrong = cas[1]->unwrap(*wrapped);
  if (wrong.has_value()) {
    EXPECT_NE(*wrong, secret);
  }
}

TEST_F(TransportFixture, UdQpGetsRandomQkey) {
  auto& qp1 = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  auto& qp2 = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  EXPECT_NE(qp1.qpn, qp2.qpn);
  EXPECT_NE(qp1.qkey, qp2.qkey);
  EXPECT_NE(qp1.qkey, 0u);
}

TEST_F(TransportFixture, UdSendDeliversWithCorrectQkey) {
  auto& dst_qp = cas[1]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  auto& src_qp = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  int delivered = 0;
  cas[1]->set_receive_handler(
      [&](const ib::Packet& pkt, const QueuePair& qp) {
        ++delivered;
        EXPECT_EQ(qp.qpn, dst_qp.qpn);
        EXPECT_EQ(pkt.payload.size(), 100u);
      });
  ASSERT_TRUE(cas[0]->post_send(src_qp.qpn, std::vector<std::uint8_t>(100, 1),
                                PacketMeta::TrafficClass::kBestEffort, 1,
                                dst_qp.qpn, dst_qp.qkey));
  run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 1u);
}

TEST_F(TransportFixture, UdWrongQkeyDropped) {
  auto& dst_qp = cas[1]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  auto& src_qp = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  int delivered = 0;
  cas[1]->set_receive_handler(
      [&](const ib::Packet&, const QueuePair&) { ++delivered; });
  cas[0]->post_send(src_qp.qpn, std::vector<std::uint8_t>(100, 1),
                    PacketMeta::TrafficClass::kBestEffort, 1, dst_qp.qpn,
                    dst_qp.qkey ^ 1);
  run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(cas[1]->retire_obs().qkey_violation->value(), 1u);
}

TEST_F(TransportFixture, RcSendUsesBoundPeer) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[3]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 3, b.qpn);
  cas[3]->bind_rc(b.qpn, 0, a.qpn);
  int delivered = 0;
  cas[3]->set_receive_handler(
      [&](const ib::Packet& pkt, const QueuePair& qp) {
        ++delivered;
        EXPECT_EQ(qp.qpn, b.qpn);
        EXPECT_EQ(pkt.bth.opcode, ib::OpCode::kRcSendOnly);
        EXPECT_FALSE(pkt.deth.has_value());  // RC carries no Q_Key
      });
  ASSERT_TRUE(cas[0]->post_send(a.qpn, std::vector<std::uint8_t>(64, 2),
                                PacketMeta::TrafficClass::kBestEffort));
  run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(TransportFixture, RcUnboundSendFails) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  EXPECT_FALSE(cas[0]->post_send(a.qpn, std::vector<std::uint8_t>(64, 2),
                                 PacketMeta::TrafficClass::kBestEffort));
}

TEST_F(TransportFixture, PsnIncrementsPerPacket) {
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  auto& src = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  std::vector<ib::Psn> psns;
  cas[1]->set_receive_handler([&](const ib::Packet& pkt, const QueuePair&) {
    psns.push_back(pkt.bth.psn);
  });
  for (int i = 0; i < 5; ++i) {
    cas[0]->post_send(src.qpn, std::vector<std::uint8_t>(10, 0),
                      PacketMeta::TrafficClass::kBestEffort, 1, dst.qpn,
                      dst.qkey);
  }
  run();
  ASSERT_EQ(psns.size(), 5u);
  for (std::size_t i = 0; i < psns.size(); ++i) {
    EXPECT_EQ(psns[i], i);
  }
}

TEST_F(TransportFixture, OversizedPayloadRejected) {
  auto& src = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  std::vector<std::uint8_t> too_big(fabric->config().mtu_bytes + 1, 0);
  EXPECT_FALSE(cas[0]->post_send(src.qpn, too_big,
                                 PacketMeta::TrafficClass::kBestEffort, 1, 5,
                                 1));
}

TEST_F(TransportFixture, PKeyViolationCountedAndTrapped) {
  sm->create_partition(0x8111, {0, 1});
  auto& dst = cas[1]->create_qp(ServiceType::kUnreliableDatagram, 0x8111);
  // A compromised node 2 floods a P_Key that is in nobody's table.
  ib::Packet pkt;
  pkt.lrh.vl = fabric::kBestEffortVl;
  pkt.lrh.slid = fabric->lid_of_node(2);
  pkt.lrh.dlid = fabric->lid_of_node(1);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = 0x9999;  // not in node 1's table
  pkt.bth.dest_qp = dst.qpn;
  pkt.deth = ib::Deth{dst.qkey, 7};
  pkt.payload.assign(32, 0);
  pkt.finalize();
  cas[2]->inject_raw(std::move(pkt));
  run();
  EXPECT_EQ(cas[1]->retire_obs().pkey_violation->value(), 1u);
  EXPECT_EQ(cas[1]->counters().traps_sent, 1u);
  EXPECT_EQ(sm->traps_received(), 1u);
}

TEST_F(TransportFixture, RdmaWriteAppliesToMemory) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[1]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 1, b.qpn);
  cas[1]->bind_rc(b.qpn, 0, a.qpn);

  ib::MemoryRegion region;
  region.va_base = 0x10000;
  region.length = 256;
  region.rkey = 0xCAFE;
  region.remote_write = true;
  ASSERT_TRUE(cas[1]->register_memory(region,
                                      std::vector<std::uint8_t>(256, 0)));

  ASSERT_TRUE(cas[0]->post_rdma_write(
      a.qpn, 0x10010, 0xCAFE, std::vector<std::uint8_t>{1, 2, 3, 4},
      PacketMeta::TrafficClass::kBestEffort));
  run();
  EXPECT_EQ(cas[1]->counters().rdma_writes_applied, 1u);
  const auto* memory = cas[1]->memory_of(0xCAFE);
  ASSERT_NE(memory, nullptr);
  EXPECT_EQ((*memory)[0x10], 1);
  EXPECT_EQ((*memory)[0x13], 4);
}

TEST_F(TransportFixture, RdmaWrongRkeyRejected) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[1]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 1, b.qpn);
  cas[1]->bind_rc(b.qpn, 0, a.qpn);
  ib::MemoryRegion region;
  region.va_base = 0;
  region.length = 64;
  region.rkey = 0x1111;
  region.remote_write = true;
  cas[1]->register_memory(region, {});
  cas[0]->post_rdma_write(a.qpn, 0, 0x2222, std::vector<std::uint8_t>(8, 9),
                          PacketMeta::TrafficClass::kBestEffort);
  run();
  EXPECT_EQ(cas[1]->retire_obs().rdma_rejected->value(), 1u);
  EXPECT_EQ(cas[1]->counters().rdma_writes_applied, 0u);
}

TEST_F(TransportFixture, RdmaOutOfBoundsRejected) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[1]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 1, b.qpn);
  cas[1]->bind_rc(b.qpn, 0, a.qpn);
  ib::MemoryRegion region;
  region.va_base = 0x100;
  region.length = 16;
  region.rkey = 0x3333;
  region.remote_write = true;
  cas[1]->register_memory(region, {});
  // Write straddles the region end.
  cas[0]->post_rdma_write(a.qpn, 0x108, 0x3333,
                          std::vector<std::uint8_t>(16, 1),
                          PacketMeta::TrafficClass::kBestEffort);
  run();
  EXPECT_EQ(cas[1]->retire_obs().rdma_rejected->value(), 1u);
}

TEST_F(TransportFixture, RdmaWriteToReadOnlyRegionRejected) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[1]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 1, b.qpn);
  cas[1]->bind_rc(b.qpn, 0, a.qpn);
  ib::MemoryRegion region;
  region.va_base = 0;
  region.length = 64;
  region.rkey = 0x4444;  // remote_write stays false
  cas[1]->register_memory(region, {});
  cas[0]->post_rdma_write(a.qpn, 0, 0x4444, std::vector<std::uint8_t>(8, 1),
                          PacketMeta::TrafficClass::kBestEffort);
  run();
  EXPECT_EQ(cas[1]->retire_obs().rdma_rejected->value(), 1u);
}

TEST_F(TransportFixture, RcAckRequestedAndReturned) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[1]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 1, b.qpn);
  cas[1]->bind_rc(b.qpn, 0, a.qpn);
  ib::MemoryRegion region;
  region.va_base = 0;
  region.length = 32;
  region.rkey = 0xACED;
  region.remote_write = true;
  cas[1]->register_memory(region, {});

  cas[0]->post_rdma_write(a.qpn, 0, 0xACED, std::vector<std::uint8_t>(8, 1),
                          PacketMeta::TrafficClass::kBestEffort,
                          /*ack_req=*/true);
  run();
  EXPECT_EQ(cas[1]->counters().acks_sent, 1u);
  EXPECT_EQ(cas[0]->retire_obs().ack->value(), 1u);
}

TEST_F(TransportFixture, RcInOrderPsnTracking) {
  auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  auto& b = cas[3]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
  cas[0]->bind_rc(a.qpn, 3, b.qpn);
  cas[3]->bind_rc(b.qpn, 0, a.qpn);
  for (int i = 0; i < 10; ++i) {
    cas[0]->post_send(a.qpn, std::vector<std::uint8_t>(16, 0),
                      PacketMeta::TrafficClass::kBestEffort);
  }
  run();
  // Lossless in-order fabric: no out-of-order deliveries.
  EXPECT_EQ(cas[3]->counters().rc_out_of_order, 0u);
  EXPECT_EQ(cas[3]->retire_obs().delivered->value(), 10u);
}

TEST_F(TransportFixture, DuplicateRkeyRegistrationFails) {
  ib::MemoryRegion region;
  region.rkey = 0x7777;
  region.length = 8;
  EXPECT_TRUE(cas[0]->register_memory(region, {}));
  EXPECT_FALSE(cas[0]->register_memory(region, {}));
}

TEST_F(TransportFixture, MadHandlerChainDispatches) {
  int handled = 0;
  cas[2]->add_mad_handler([&](const Mad& mad) {
    if (mad.type != MadType::kQKeyRequest) return false;
    ++handled;
    return true;
  });
  Mad mad;
  mad.type = MadType::kQKeyRequest;
  mad.src_node = 0;
  mad.src_qp = 10;
  mad.dst_qp = 20;
  cas[0]->send_mad(2, mad);
  run();
  EXPECT_EQ(handled, 1);
  EXPECT_GE(cas[2]->counters().mads_received, 1u);
}

TEST_F(TransportFixture, MKeyGatesPortReconfigure) {
  const auto real_key = sm->m_key_of(3);
  Mad mad;
  mad.type = MadType::kPortReconfigure;
  mad.attribute = 7;
  mad.value = 0xAAAA;
  mad.m_key = real_key ^ 0xFF;  // wrong key
  cas[1]->send_mad(3, mad);
  run();
  EXPECT_EQ(cas[3]->counters().reconfigs_rejected, 1u);
  EXPECT_EQ(cas[3]->port_attribute(7), 0u);

  mad.m_key = real_key;  // the leaked-key attack: plaintext key = authority
  cas[1]->send_mad(3, mad);
  run();
  EXPECT_EQ(cas[3]->counters().reconfigs_applied, 1u);
  EXPECT_EQ(cas[3]->port_attribute(7), 0xAAAAu);
}

TEST_F(TransportFixture, BKeyGatesBaseboardAttributes) {
  const auto b_key = cas[2]->node_keys().b_key;
  Mad mad;
  mad.type = MadType::kPortReconfigure;
  mad.attribute = ChannelAdapter::kBaseboardAttributeBase + 1;
  mad.value = 1;
  mad.m_key = sm->m_key_of(2);  // M_Key does NOT open baseboard state
  cas[0]->send_mad(2, mad);
  run();
  EXPECT_EQ(cas[2]->counters().reconfigs_rejected, 1u);

  mad.m_key = b_key;
  cas[0]->send_mad(2, mad);
  run();
  EXPECT_EQ(cas[2]->counters().reconfigs_applied, 1u);
}

TEST(Mad, SerializeParseRoundTrip) {
  Mad mad;
  mad.type = MadType::kKeyDistribution;
  mad.src_node = 3;
  mad.pkey = 0x8123;
  mad.qkey = 0xDEADBEEF;
  mad.src_qp = 11;
  mad.dst_qp = 22;
  mad.m_key = 0x0123456789ABCDEFULL;
  mad.attribute = 9;
  mad.value = 0x55AA55AA;
  mad.auth_alg = crypto::AuthAlgorithm::kUmac32;
  mad.blob = {1, 2, 3, 4, 5};
  std::vector<std::uint8_t> wire;
  mad.serialize(wire);
  EXPECT_EQ(wire.size(), Mad::kWireSize);
  const auto parsed = Mad::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, mad.type);
  EXPECT_EQ(parsed->src_node, mad.src_node);
  EXPECT_EQ(parsed->pkey, mad.pkey);
  EXPECT_EQ(parsed->qkey, mad.qkey);
  EXPECT_EQ(parsed->src_qp, mad.src_qp);
  EXPECT_EQ(parsed->dst_qp, mad.dst_qp);
  EXPECT_EQ(parsed->m_key, mad.m_key);
  EXPECT_EQ(parsed->attribute, mad.attribute);
  EXPECT_EQ(parsed->value, mad.value);
  EXPECT_EQ(parsed->auth_alg, mad.auth_alg);
  EXPECT_EQ(parsed->blob, mad.blob);
}

TEST(Mad, ParseRejectsMalformed) {
  EXPECT_FALSE(Mad::parse(std::vector<std::uint8_t>(10)).has_value());
  std::vector<std::uint8_t> bad_type(Mad::kWireSize, 0);
  bad_type[0] = 99;
  EXPECT_FALSE(Mad::parse(bad_type).has_value());
  Mad mad;
  std::vector<std::uint8_t> wire;
  mad.serialize(wire);
  wire[34] = 0xFF;  // blob length field -> oversized
  wire[35] = 0xFF;
  EXPECT_FALSE(Mad::parse(wire).has_value());
}

TEST(Mad, SerializeRefusesABlobPastItsField) {
  Mad mad;
  mad.blob.assign(Mad::kMaxBlobSize, 0xAB);
  std::vector<std::uint8_t> wire;
  mad.serialize(wire);
  const auto parsed = Mad::parse(wire);
  ASSERT_TRUE(parsed.has_value()) << "the largest blob round-trips";
  EXPECT_EQ(parsed->blob, mad.blob);
  // One byte more would not parse; past 220 bytes it would overrun the
  // 256-byte payload (a 2048-bit RSA-wrapped secret is 256 bytes).
  mad.blob.push_back(0xAB);
  EXPECT_DEATH(mad.serialize(wire), "MAD blob of 201 bytes");
  mad.blob.assign(256, 0xAB);
  EXPECT_DEATH(mad.serialize(wire), "MAD blob of 256 bytes");
}

TEST_F(TransportFixture, SubnetManagerPartitionSetup) {
  sm->create_partition(0x8200, {0, 2});
  EXPECT_TRUE(cas[0]->partition_table().contains(0x8200));
  EXPECT_TRUE(cas[2]->partition_table().contains(0x8200));
  EXPECT_FALSE(cas[1]->partition_table().contains(0x8200));
  const auto* members = sm->members_of(0x8200);
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->size(), 2u);
  EXPECT_EQ(sm->members_of(0x8300), nullptr);
}

TEST_F(TransportFixture, DistinctMKeysPerNode) {
  std::set<ib::MKeyValue> keys;
  for (int node = 0; node < 4; ++node) keys.insert(sm->m_key_of(node));
  EXPECT_EQ(keys.size(), 4u);
}

}  // namespace
}  // namespace ibsec::transport
