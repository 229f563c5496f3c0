// RC reliability protocol properties under deterministic fault campaigns.
//
// The contract under test (see transport/rc_reliability.h and DESIGN.md):
// on a fabric that drops packets, a bound RC QP pair with the protocol
// enabled still delivers every posted message exactly once, in post order —
// as long as the loss stays within the retry budget. Above the budget the
// QP must fail fast and loudly (error completion, counter, dead QP), never
// stall silently. The fault schedule is seeded, so every trajectory here —
// which packets die, which timers fire, which NAKs go out — replays
// byte-identically.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "transport/channel_adapter.h"

namespace ibsec::transport {
namespace {

using time_literals::kMicrosecond;

RcConfig test_rc_config() {
  RcConfig rc;
  rc.enabled = true;
  rc.retransmit_timeout = 20 * kMicrosecond;  // RTT on the 2x1 mesh is ~2us
  rc.max_retries = 6;
  rc.backoff_shift_cap = 3;
  rc.max_outstanding = 16;
  rc.ack_coalesce = 4;
  rc.ack_delay = 5 * kMicrosecond;
  return rc;
}

struct RcFixture : public ::testing::Test {
  /// Two nodes, one link pair between their switches; `fault_spec` seeds
  /// the campaign ("" = lossless).
  void build(const std::string& fault_spec, RcConfig rc = test_rc_config(),
             std::uint64_t seed = 31) {
    fabric::FabricConfig fcfg;
    fcfg.mesh_width = 2;
    fcfg.mesh_height = 1;
    if (!fault_spec.empty()) {
      const auto campaign = fabric::FaultCampaign::parse(fault_spec);
      ASSERT_TRUE(campaign.has_value()) << fault_spec;
      fcfg.fault_campaign = *campaign;
    }
    fabric = std::make_unique<fabric::Fabric>(fcfg);
    for (int node = 0; node < 2; ++node) {
      cas.push_back(std::make_unique<ChannelAdapter>(*fabric, node, pki, seed,
                                                     /*rsa_bits=*/256));
      cas.back()->set_rc_config(rc);
    }
    auto& a = cas[0]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
    auto& b = cas[1]->create_qp(ServiceType::kReliableConnection, 0xFFFF);
    cas[0]->bind_rc(a.qpn, 1, b.qpn);
    cas[1]->bind_rc(b.qpn, 0, a.qpn);
    src_qpn = a.qpn;
    dst_qpn = b.qpn;
  }

  std::size_t mtu() const { return fabric->config().mtu_bytes; }

  /// Message `seq` of length `n`: an 8-byte sequence header over seeded
  /// random bytes, so both identity and integrity are checkable on receipt.
  static std::vector<std::uint8_t> numbered_message(std::uint64_t seq,
                                                    std::size_t n) {
    Rng rng(seq * 2654435761u + 17);
    std::vector<std::uint8_t> msg(n);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u32());
    for (std::size_t i = 0; i < 8 && i < n; ++i) {
      msg[i] = static_cast<std::uint8_t>(seq >> (8 * i));
    }
    return msg;
  }

  PkiDirectory pki;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<ChannelAdapter>> cas;
  ib::Qpn src_qpn = 0, dst_qpn = 0;
};

// --- exactly-once, in-order delivery below the retry budget ------------------

class RcLossSweep
    : public RcFixture,
      public ::testing::WithParamInterface<std::tuple<std::uint64_t, int>> {};

TEST_P(RcLossSweep, ExactlyOnceInOrderUnderSeededLoss) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const int loss_percent = std::get<1>(GetParam());
  build("seed=" + std::to_string(seed) +
        ";drop=" + std::to_string(loss_percent / 100.0));

  std::vector<std::vector<std::uint8_t>> received;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t> msg, const QueuePair&) {
        received.emplace_back(msg.begin(), msg.end());
      });

  // Sizes span the MTU boundary: single packets, exact fits, multi-segment.
  const std::size_t sizes[] = {1,           mtu() - 1, mtu(),
                               mtu() + 1,   3 * mtu() + 7,
                               10 * mtu()};
  std::vector<std::vector<std::uint8_t>> posted;
  for (std::uint64_t seq = 0; seq < 48; ++seq) {
    auto msg = numbered_message(seq, sizes[seq % std::size(sizes)]);
    ASSERT_TRUE(cas[0]->post_message(
        src_qpn, msg, ib::PacketMeta::TrafficClass::kBestEffort));
    posted.push_back(std::move(msg));
  }
  fabric->simulator().run();

  // Exactly once, in order, bit-exact — duplicates, holes, reorderings and
  // corrupted reassemblies all fail here.
  ASSERT_EQ(received.size(), posted.size());
  for (std::size_t i = 0; i < posted.size(); ++i) {
    EXPECT_EQ(received[i], posted[i]) << "message " << i;
  }
  EXPECT_FALSE(cas[0]->find_qp(src_qpn)->requester.failed());
  EXPECT_EQ(cas[1]->counters().reassembly_errors, 0u);

  const auto snap = fabric->simulator().obs().snapshot();
  if (loss_percent > 0) {
    // The campaign actually bit, and recovery actually ran.
    EXPECT_GT(snap.sum_matching("link.*.faults.dropped"), 0);
    EXPECT_GT(snap.sum_matching("ca.*.rc.retransmits"), 0);
  } else {
    EXPECT_EQ(snap.sum_matching("ca.*.rc.retransmits"), 0);
  }
  // Conservation holds with the new loss cause in the ledger.
  EXPECT_EQ(snap.sum_matching("hca.*.injected"),
            snap.sum_matching("switch.*.drop.*") +
                snap.sum_matching("link.*.faults.dropped") +
                snap.sum_matching("link.*.faults.flap_dropped") +
                snap.sum_matching("hca.*.received"));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLoss, RcLossSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 11u),
                       ::testing::Values(0, 5, 15)));

// --- retry exhaustion fails fast, never stalls -------------------------------

TEST_F(RcFixture, RetryExhaustionSurfacesErrorNotSilence) {
  build("seed=4;drop=1.0");  // nothing ever gets through

  ib::Qpn failed_qpn = 0;
  int error_completions = 0;
  cas[0]->set_rc_error_handler([&](ib::Qpn qpn, ib::Psn oldest) {
    failed_qpn = qpn;
    EXPECT_EQ(oldest, 0u);  // the very first PSN was never acknowledged
    ++error_completions;
  });
  int delivered = 0;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t>, const QueuePair&) { ++delivered; });

  ASSERT_TRUE(cas[0]->post_message(src_qpn, numbered_message(0, 2 * mtu()),
                                   ib::PacketMeta::TrafficClass::kBestEffort));
  // Must terminate: timers re-arm only while the window is non-empty, and
  // the retry budget bounds the number of rounds.
  fabric->simulator().run();

  EXPECT_EQ(error_completions, 1);
  EXPECT_EQ(failed_qpn, src_qpn);
  EXPECT_EQ(delivered, 0);
  const QueuePair* qp = cas[0]->find_qp(src_qpn);
  EXPECT_TRUE(qp->requester.failed());
  EXPECT_TRUE(qp->requester.window().empty());
  EXPECT_EQ(cas[0]->rc_obs().retry_exhausted->value(), 1u);
  const auto snap = fabric->simulator().obs().snapshot();
  EXPECT_EQ(snap.at("ca.0.rc.retry_exhausted"), 1);
  // The dead QP rejects further work instead of queueing it forever.
  EXPECT_FALSE(cas[0]->post_message(src_qpn, numbered_message(1, 64),
                                    ib::PacketMeta::TrafficClass::kBestEffort));
  EXPECT_FALSE(cas[0]->post_rdma_write(src_qpn, 0, 0x77, {1, 2, 3},
                                       ib::PacketMeta::TrafficClass::kBestEffort));
}

TEST_F(RcFixture, BackoffEscalatesTimeouts) {
  // With total loss, successive retry rounds must stretch out: the whole
  // failure takes at least sum(timeout << min(i, cap)) of simulated time.
  RcConfig rc = test_rc_config();
  rc.max_retries = 4;
  build("seed=4;drop=1.0", rc);
  ASSERT_TRUE(cas[0]->post_send(src_qpn, {1, 2, 3},
                                ib::PacketMeta::TrafficClass::kBestEffort));
  fabric->simulator().run();
  SimTime expected_floor = 0;
  for (int round = 0; round <= rc.max_retries; ++round) {
    expected_floor += rc_backoff_timeout(rc, round);
  }
  EXPECT_GE(fabric->simulator().now(), expected_floor);
  EXPECT_EQ(cas[0]->rc_obs().retry_exhausted->value(), 1u);
  // Exactly max_retries retransmission rounds ran before giving up.
  EXPECT_EQ(cas[0]->rc_obs().retransmits->value(),
            static_cast<std::uint64_t>(rc.max_retries));
}

// --- RDMA under loss ---------------------------------------------------------

TEST_F(RcFixture, RdmaWriteReliableUnderLoss) {
  build("seed=6;drop=0.15");
  ib::MemoryRegion region;
  region.rkey = 0x42;
  region.va_base = 0x1000;
  region.length = 4096;
  region.remote_write = true;
  ASSERT_TRUE(cas[1]->register_memory(region, {}));

  std::vector<std::uint8_t> expect(4096, 0);
  for (int k = 0; k < 16; ++k) {
    const auto chunk = numbered_message(static_cast<std::uint64_t>(k), 256);
    std::copy(chunk.begin(), chunk.end(),
              expect.begin() + static_cast<long>(k) * 256);
    ASSERT_TRUE(cas[0]->post_rdma_write(
        src_qpn, 0x1000 + static_cast<std::uint64_t>(k) * 256, 0x42, chunk,
        ib::PacketMeta::TrafficClass::kBestEffort, /*ack_req=*/(k % 3 == 0)));
  }
  fabric->simulator().run();

  const auto* mem = cas[1]->memory_of(0x42);
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(*mem, expect);
  EXPECT_FALSE(cas[0]->find_qp(src_qpn)->requester.failed());
  EXPECT_TRUE(cas[0]->find_qp(src_qpn)->requester.window().empty());
  EXPECT_GT(cas[0]->rc_obs().retransmits->value(), 0u);
}

// --- protocol mechanics ------------------------------------------------------

TEST_F(RcFixture, AcksAreCoalesced) {
  build("");  // lossless
  for (int k = 0; k < 12; ++k) {
    ASSERT_TRUE(cas[0]->post_send(src_qpn, numbered_message(0, 32),
                                  ib::PacketMeta::TrafficClass::kBestEffort));
  }
  fabric->simulator().run();
  // 12 in-order packets with ack_coalesce=4: roughly one ACK per 4 arrivals
  // (plus at most one trailing delayed ACK), far fewer than one per packet.
  EXPECT_GE(cas[1]->counters().acks_sent, 3u);
  EXPECT_LE(cas[1]->counters().acks_sent, 6u);
  EXPECT_TRUE(cas[0]->find_qp(src_qpn)->requester.window().empty());
  EXPECT_EQ(cas[0]->rc_obs().retransmits->value(), 0u);
}

TEST_F(RcFixture, WindowBackpressureQueuesAndDrains) {
  RcConfig rc = test_rc_config();
  rc.max_outstanding = 4;
  build("", rc);
  int delivered = 0;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t>, const QueuePair&) { ++delivered; });
  // 40 single-packet messages against a 4-deep window: posts must queue at
  // the sender and drain as ACKs arrive, preserving order.
  for (std::uint64_t seq = 0; seq < 40; ++seq) {
    ASSERT_TRUE(cas[0]->post_message(src_qpn, numbered_message(seq, 100),
                                     ib::PacketMeta::TrafficClass::kBestEffort));
  }
  const QueuePair* qp = cas[0]->find_qp(src_qpn);
  EXPECT_LE(qp->requester.window().size(), 4u);
  EXPECT_FALSE(qp->requester.pending().empty());
  fabric->simulator().run();
  EXPECT_EQ(delivered, 40);
  EXPECT_TRUE(qp->requester.window().empty());
  EXPECT_TRUE(qp->requester.pending().empty());
}

TEST_F(RcFixture, OutOfOrderArrivalNaksOncePerGap) {
  build("");
  // Forge an RC SEND from node 1 to node 0's QP with a future PSN: the
  // receiver must drop it (no delivery) and NAK with its expected PSN.
  int delivered = 0;
  cas[0]->set_message_handler(
      [&](std::span<const std::uint8_t>, const QueuePair&) { ++delivered; });
  for (int dup = 0; dup < 3; ++dup) {
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.sl = pkt.lrh.vl;
    pkt.lrh.slid = fabric->lid_of_node(1);
    pkt.lrh.dlid = fabric->lid_of_node(0);
    pkt.bth.opcode = ib::OpCode::kRcSendOnly;
    pkt.bth.pkey = 0xFFFF;
    pkt.bth.dest_qp = src_qpn;
    pkt.bth.psn = 7;  // expected is 0
    pkt.meta.src_qp = dst_qpn;
    pkt.meta.src_node = 1;
    pkt.meta.dst_node = 0;
    pkt.payload.assign(16, 0xEE);
    pkt.finalize();
    cas[1]->inject_raw(std::move(pkt));
  }
  fabric->simulator().run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(cas[0]->counters().rc_out_of_order, 3u);
  // One NAK armed the gap; the repeats didn't re-NAK (go-back-N would
  // otherwise amplify every burst).
  EXPECT_EQ(cas[0]->rc_obs().naks->value(), 1u);
  EXPECT_EQ(cas[1]->retire_obs().nak->value(), 1u);
}

TEST_F(RcFixture, FlapScheduleDropsThenRecovers) {
  // Both inter-switch directions flap for a window long enough to outlast
  // the first retransmission round; traffic posted before the flap heals
  // once the link comes back.
  build("flap=sw0.out1:5us-120us;flap=sw1.out2:5us-120us");
  std::vector<std::vector<std::uint8_t>> received;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t> msg, const QueuePair&) {
        received.emplace_back(msg.begin(), msg.end());
      });
  std::vector<std::vector<std::uint8_t>> posted;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    auto msg = numbered_message(seq, mtu() + 3);
    ASSERT_TRUE(cas[0]->post_message(
        src_qpn, msg, ib::PacketMeta::TrafficClass::kBestEffort));
    posted.push_back(std::move(msg));
  }
  fabric->simulator().run();
  ASSERT_EQ(received.size(), posted.size());
  for (std::size_t i = 0; i < posted.size(); ++i) {
    EXPECT_EQ(received[i], posted[i]) << "message " << i;
  }
  const auto snap = fabric->simulator().obs().snapshot();
  EXPECT_GT(snap.sum_matching("link.*.faults.flap_dropped"), 0);
  EXPECT_GT(snap.sum_matching("ca.*.rc.retransmits"), 0);
}

TEST_F(RcFixture, DisabledKeepsLegacySemantics) {
  // RcConfig::enabled=false must leave the seed fabric's fire-and-forget
  // path untouched: no window, no ACK traffic, deliveries as before.
  RcConfig rc;
  rc.enabled = false;
  build("", rc);
  int delivered = 0;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t>, const QueuePair&) { ++delivered; });
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    ASSERT_TRUE(cas[0]->post_message(src_qpn, numbered_message(seq, 3 * mtu()),
                                     ib::PacketMeta::TrafficClass::kBestEffort));
  }
  fabric->simulator().run();
  EXPECT_EQ(delivered, 5);
  EXPECT_TRUE(cas[0]->find_qp(src_qpn)->requester.window().empty());
  EXPECT_EQ(cas[1]->counters().acks_sent, 0u);
  EXPECT_EQ(cas[0]->rc_obs().retransmits->value(), 0u);
}

}  // namespace
}  // namespace ibsec::transport
