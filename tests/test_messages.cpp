// Multi-packet RC messages: segmentation into SEND First/Middle/Last,
// in-order reassembly, per-segment authentication, and error handling for
// broken segment sequences.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "security/auth_engine.h"
#include "security/qp_key_manager.h"
#include "transport/subnet_manager.h"

namespace ibsec::transport {
namespace {

struct MessageFixture : public ::testing::Test {
  MessageFixture() {
    fabric::FabricConfig fcfg;
    fcfg.mesh_width = 2;
    fcfg.mesh_height = 1;
    fabric = std::make_unique<fabric::Fabric>(fcfg);
    for (int node = 0; node < 2; ++node) {
      cas.push_back(std::make_unique<ChannelAdapter>(*fabric, node, pki, 31,
                                                     /*rsa_bits=*/256));
    }
    auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
    auto& b = cas[1]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
    cas[0]->bind_rc(a.qpn, 1, b.qpn);
    cas[1]->bind_rc(b.qpn, 0, a.qpn);
    src_qpn = a.qpn;
    dst_qpn = b.qpn;
  }

  void run() { fabric->simulator().run(); }

  std::vector<std::uint8_t> random_message(std::size_t n,
                                           std::uint64_t seed = 77) {
    Rng rng(seed);
    std::vector<std::uint8_t> msg(n);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u32());
    return msg;
  }

  PkiDirectory pki;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<ChannelAdapter>> cas;
  ib::Qpn src_qpn = 0, dst_qpn = 0;
};

TEST_F(MessageFixture, SmallMessageSinglePacket) {
  std::vector<std::uint8_t> received;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t> msg, const QueuePair&) {
        received.assign(msg.begin(), msg.end());
      });
  const auto msg = random_message(500);
  ASSERT_TRUE(cas[0]->post_message(src_qpn, msg,
                                   ib::PacketMeta::TrafficClass::kBestEffort));
  run();
  EXPECT_EQ(received, msg);
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), 1u);  // one packet
  EXPECT_EQ(cas[1]->counters().messages_delivered, 1u);
}

class MessageSizeSweep : public MessageFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(MessageSizeSweep, SegmentsAndReassembles) {
  std::vector<std::uint8_t> received;
  int messages = 0;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t> msg, const QueuePair&) {
        received.assign(msg.begin(), msg.end());
        ++messages;
      });
  const auto msg = random_message(GetParam());
  ASSERT_TRUE(cas[0]->post_message(src_qpn, msg,
                                   ib::PacketMeta::TrafficClass::kBestEffort));
  run();
  EXPECT_EQ(messages, 1);
  EXPECT_EQ(received, msg);
  const std::size_t expected_packets = (GetParam() + 1023) / 1024;
  EXPECT_EQ(cas[1]->retire_obs().delivered->value(), expected_packets);
  EXPECT_EQ(cas[1]->counters().reassembly_errors, 0u);
  EXPECT_EQ(cas[1]->counters().rc_out_of_order, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MessageSizeSweep,
                         ::testing::Values(1024, 1025, 2048, 2049, 3000,
                                           10240, 16385));

TEST_F(MessageFixture, BackToBackMessagesDoNotInterleave) {
  std::vector<std::vector<std::uint8_t>> messages;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t> msg, const QueuePair&) {
        messages.emplace_back(msg.begin(), msg.end());
      });
  const auto m1 = random_message(3000, 1);
  const auto m2 = random_message(5000, 2);
  const auto m3 = random_message(100, 3);
  cas[0]->post_message(src_qpn, m1, ib::PacketMeta::TrafficClass::kBestEffort);
  cas[0]->post_message(src_qpn, m2, ib::PacketMeta::TrafficClass::kBestEffort);
  cas[0]->post_message(src_qpn, m3, ib::PacketMeta::TrafficClass::kBestEffort);
  run();
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(messages[0], m1);
  EXPECT_EQ(messages[1], m2);
  EXPECT_EQ(messages[2], m3);
  EXPECT_EQ(cas[1]->counters().reassembly_errors, 0u);
}

TEST_F(MessageFixture, EverySegmentIsIndividuallyAuthenticated) {
  // QP-level keys + auth: each First/Middle/Last packet carries its own tag
  // (per-PSN nonce), and the reassembled message still arrives intact.
  security::AuthEngine e0(*cas[0]), e1(*cas[1]);
  security::QpKeyManager k0(*cas[0]), k1(*cas[1]);
  e0.set_key_manager(&k0);
  e1.set_key_manager(&k1);
  e0.enable_for_partition(0xFFFF);
  e1.enable_for_partition(0xFFFF);
  k0.establish_rc(src_qpn, 1, dst_qpn);
  run();

  std::vector<std::uint8_t> received;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t> msg, const QueuePair&) {
        received.assign(msg.begin(), msg.end());
      });
  const auto msg = random_message(4096);
  cas[0]->post_message(src_qpn, msg,
                       ib::PacketMeta::TrafficClass::kBestEffort);
  run();
  EXPECT_EQ(received, msg);
  EXPECT_EQ(e0.stats().signed_packets, 4u);   // 4 segments, 4 tags
  EXPECT_EQ(e1.stats().verified_ok, 4u);
  EXPECT_EQ(cas[1]->retire_obs().auth_rejected->value(), 0u);
}

TEST_F(MessageFixture, MiddleWithoutFirstCountsError) {
  ib::Packet rogue;
  rogue.lrh.vl = fabric::kBestEffortVl;
  rogue.lrh.slid = fabric->lid_of_node(0);
  rogue.lrh.dlid = fabric->lid_of_node(1);
  rogue.bth.opcode = ib::OpCode::kRcSendMiddle;
  rogue.bth.pkey = 0xFFFF;
  rogue.bth.dest_qp = dst_qpn;
  rogue.payload.assign(64, 0x33);
  rogue.finalize();
  cas[0]->inject_raw(std::move(rogue));
  run();
  EXPECT_EQ(cas[1]->counters().reassembly_errors, 1u);
  EXPECT_EQ(cas[1]->counters().messages_delivered, 0u);
}

TEST_F(MessageFixture, FirstTwiceAbandonsPartialMessage) {
  // Two Firsts in a row: the second supersedes, the abandonment is counted,
  // and the following Last completes the *second* message.
  for (int i = 0; i < 2; ++i) {
    ib::Packet first;
    first.lrh.vl = fabric::kBestEffortVl;
    first.lrh.slid = fabric->lid_of_node(0);
    first.lrh.dlid = fabric->lid_of_node(1);
    first.bth.opcode = ib::OpCode::kRcSendFirst;
    first.bth.pkey = 0xFFFF;
    first.bth.dest_qp = dst_qpn;
    first.bth.psn = static_cast<ib::Psn>(i);
    first.payload.assign(16, static_cast<std::uint8_t>(0x10 + i));
    first.finalize();
    cas[0]->inject_raw(std::move(first));
  }
  ib::Packet last;
  last.lrh.vl = fabric::kBestEffortVl;
  last.lrh.slid = fabric->lid_of_node(0);
  last.lrh.dlid = fabric->lid_of_node(1);
  last.bth.opcode = ib::OpCode::kRcSendLast;
  last.bth.pkey = 0xFFFF;
  last.bth.dest_qp = dst_qpn;
  last.bth.psn = 2;
  last.payload.assign(16, 0x99);
  last.finalize();
  cas[0]->inject_raw(std::move(last));

  std::vector<std::uint8_t> received;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t> msg, const QueuePair&) {
        received.assign(msg.begin(), msg.end());
      });
  run();
  EXPECT_EQ(cas[1]->counters().reassembly_errors, 1u);
  ASSERT_EQ(received.size(), 32u);
  EXPECT_EQ(received[0], 0x11);   // from the *second* First
  EXPECT_EQ(received[31], 0x99);  // from the Last
}

TEST_F(MessageFixture, UdRejectsOversizedMessages) {
  auto& ud = cas[0]->create_qp(ServiceType::kUnreliableDatagram, 0xFFFF);
  EXPECT_FALSE(cas[0]->post_message(ud.qpn, random_message(2000),
                                    ib::PacketMeta::TrafficClass::kBestEffort));
}

}  // namespace
}  // namespace ibsec::transport
