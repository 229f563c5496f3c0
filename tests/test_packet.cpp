// Packet assembly: wire round-trips, the ICRC invariance property (the
// foundation of the paper's MAC-in-ICRC mechanism), VCRC per-hop semantics,
// and parser robustness.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ib/packet.h"
#include "support/wire_parse.h"

namespace ibsec::ib {
namespace {

Packet make_ud_packet(std::size_t payload_size = 256) {
  Packet pkt;
  pkt.lrh.vl = 0;
  pkt.lrh.slid = 1;
  pkt.lrh.dlid = 2;
  pkt.bth.opcode = OpCode::kUdSendOnly;
  pkt.bth.pkey = 0x8123;
  pkt.bth.dest_qp = 42;
  pkt.bth.psn = 1000;
  pkt.deth = Deth{0xDEADBEEF, 7};
  pkt.payload.assign(payload_size, 0xA5);
  pkt.finalize();
  return pkt;
}

TEST(Packet, SerializeParseRoundTrip) {
  const Packet pkt = make_ud_packet();
  const auto wire = pkt.serialize();
  const auto parsed = parse_packet(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->lrh, pkt.lrh);
  EXPECT_EQ(parsed->bth, pkt.bth);
  ASSERT_TRUE(parsed->deth.has_value());
  EXPECT_EQ(*parsed->deth, *pkt.deth);
  EXPECT_EQ(parsed->payload, pkt.payload);
  EXPECT_EQ(parsed->icrc, pkt.icrc);
  EXPECT_EQ(parsed->vcrc, pkt.vcrc);
}

TEST(Packet, WireSizeMatchesSerialization) {
  for (std::size_t payload : {0u, 1u, 255u, 1024u}) {
    const Packet pkt = make_ud_packet(payload);
    EXPECT_EQ(pkt.wire_size(), pkt.serialize().size());
  }
}

TEST(Packet, FinalizeProducesValidCrcs) {
  const Packet pkt = make_ud_packet();
  EXPECT_TRUE(pkt.icrc_valid());
  EXPECT_TRUE(pkt.vcrc_valid());
}

TEST(Packet, PktLenCountsWordsThroughIcrc) {
  const Packet pkt = make_ud_packet(256);
  // LRH(8) + BTH(12) + DETH(8) + 256 + ICRC(4) = 288 bytes = 72 words.
  EXPECT_EQ(pkt.lrh.pkt_len, 72);
}

// --- The defining ICRC property ---------------------------------------------

TEST(Packet, IcrcInvariantUnderVlRewrite) {
  // A switch may move the packet to another VL; the ICRC (and thus the
  // paper's AT) must not change, while the VCRC must.
  Packet pkt = make_ud_packet();
  const std::uint32_t icrc_before = pkt.icrc;
  const std::uint16_t vcrc_before = pkt.vcrc;
  pkt.lrh.vl = 9;
  EXPECT_EQ(pkt.compute_icrc(), icrc_before);
  EXPECT_NE(pkt.compute_vcrc(), vcrc_before);
  pkt.refresh_vcrc();
  EXPECT_TRUE(pkt.vcrc_valid());
  EXPECT_TRUE(pkt.icrc_valid());
}

TEST(Packet, IcrcInvariantUnderResv8aRewrite) {
  // BTH.resv8a carries the auth-algorithm id; flipping it must never break
  // the ICRC — this is what makes the scheme wire-compatible (sec. 5.1).
  Packet pkt = make_ud_packet();
  const std::uint32_t icrc_before = pkt.icrc;
  pkt.bth.resv8a = 0x03;
  EXPECT_EQ(pkt.compute_icrc(), icrc_before);
}

TEST(Packet, IcrcInvariantUnderGrhVariantFields) {
  Packet pkt = make_ud_packet();
  pkt.lrh.lnh = 3;
  pkt.grh = Grh{};
  pkt.finalize();
  const std::uint32_t icrc_before = pkt.icrc;
  pkt.grh->tclass = 0x55;
  pkt.grh->flow_label = 0x12345;
  pkt.grh->hop_limit = 3;
  EXPECT_EQ(pkt.compute_icrc(), icrc_before);
  // Non-variant GRH fields ARE covered.
  pkt.grh->dgid[0] ^= 1;
  EXPECT_NE(pkt.compute_icrc(), icrc_before);
}

TEST(Packet, IcrcCoversInvariantFields) {
  const Packet base = make_ud_packet();

  Packet p1 = base;
  p1.bth.pkey ^= 1;  // P_Key is covered: spoofing it breaks the ICRC/AT
  EXPECT_NE(p1.compute_icrc(), base.icrc);

  Packet p2 = base;
  p2.bth.psn ^= 1;
  EXPECT_NE(p2.compute_icrc(), base.icrc);

  Packet p3 = base;
  p3.payload[10] ^= 1;
  EXPECT_NE(p3.compute_icrc(), base.icrc);

  Packet p4 = base;
  p4.lrh.dlid ^= 1;
  EXPECT_NE(p4.compute_icrc(), base.icrc);

  Packet p5 = base;
  p5.deth->qkey ^= 1;  // the Q_Key is covered too
  EXPECT_NE(p5.compute_icrc(), base.icrc);
}

TEST(Packet, VcrcCoversIcrcField) {
  // The VCRC covers everything including the ICRC/AT field, so a switch
  // still detects corruption of the tag itself.
  Packet pkt = make_ud_packet();
  pkt.icrc ^= 0x1;
  EXPECT_FALSE(pkt.vcrc_valid());
}

// --- extension headers ---------------------------------------------------------

TEST(Packet, RdmaWriteCarriesReth) {
  Packet pkt;
  pkt.bth.opcode = OpCode::kRcRdmaWriteOnly;
  pkt.reth = Reth{0x1000, 0xCAFE, 128};
  pkt.payload.assign(128, 1);
  pkt.finalize();
  const auto parsed = parse_packet(pkt.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->reth.has_value());
  EXPECT_EQ(parsed->reth->va, 0x1000u);
  EXPECT_EQ(parsed->reth->rkey, 0xCAFEu);
  EXPECT_EQ(parsed->reth->dma_len, 128u);
}

TEST(Packet, AckCarriesAeth) {
  Packet pkt;
  pkt.bth.opcode = OpCode::kRcAck;
  pkt.aeth = Aeth{0, 55};
  pkt.finalize();
  const auto parsed = parse_packet(pkt.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->aeth.has_value());
  EXPECT_EQ(parsed->aeth->msn, 55u);
}

TEST(Packet, GrhRoundTrip) {
  Packet pkt = make_ud_packet();
  pkt.lrh.lnh = 3;
  pkt.grh = Grh{};
  pkt.grh->dgid[15] = 0x42;
  pkt.finalize();
  const auto parsed = parse_packet(pkt.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->grh.has_value());
  EXPECT_EQ(parsed->grh->dgid[15], 0x42);
}

// --- parser robustness -----------------------------------------------------------

TEST(PacketParse, RejectsTruncatedBuffers) {
  const auto wire = make_ud_packet().serialize();
  for (std::size_t len : {0u, 1u, 7u, 19u, 25u}) {
    EXPECT_FALSE(parse_packet(std::span(wire).first(len)).has_value());
  }
}

TEST(PacketParse, RejectsUnknownOpcode) {
  auto wire = make_ud_packet().serialize();
  wire[8] = 0xFE;  // BTH opcode byte (after 8-byte LRH)
  EXPECT_FALSE(parse_packet(wire).has_value());
}

TEST(PacketParse, EmptyPayloadOk) {
  const Packet pkt = make_ud_packet(0);
  const auto parsed = parse_packet(pkt.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
  EXPECT_TRUE(parsed->icrc_valid());
}

TEST(PacketParse, CorruptionDetectedByCrcsNotParser) {
  // The parser loads bytes; integrity is the CRCs' job (switches check
  // VCRC, endpoints ICRC).
  auto wire = make_ud_packet().serialize();
  wire[40] ^= 0x80;  // payload corruption
  const auto parsed = parse_packet(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->icrc_valid());
  EXPECT_FALSE(parsed->vcrc_valid());
}

class PayloadSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSizeSweep, RoundTripAndCrcsAtSize) {
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  Packet pkt = make_ud_packet(GetParam());
  for (auto& b : pkt.payload) b = static_cast<std::uint8_t>(rng.next_u32());
  pkt.finalize();
  const auto parsed = parse_packet(pkt.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->icrc_valid());
  EXPECT_TRUE(parsed->vcrc_valid());
  EXPECT_EQ(parsed->payload, pkt.payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizeSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 63, 64, 255, 256,
                                           1023, 1024, 2048, 4096));

}  // namespace
}  // namespace ibsec::ib
