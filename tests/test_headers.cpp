// Wire-format headers: serialize/parse roundtrips, field-width truncation,
// and opcode classification.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ib/headers.h"
#include "support/wire_parse.h"

namespace ibsec::ib {
namespace {

TEST(Lrh, RoundTrip) {
  Lrh lrh;
  lrh.vl = 7;
  lrh.lver = 1;
  lrh.sl = 3;
  lrh.lnh = 1;
  lrh.dlid = 0xBEEF;
  lrh.pkt_len = 0x2AB;
  lrh.slid = 0x1234;
  std::array<std::uint8_t, Lrh::kWireSize> wire{};
  lrh.serialize(wire);
  EXPECT_EQ(parse_lrh(wire), lrh);
}

TEST(Lrh, FieldWidthsTruncate) {
  Lrh lrh;
  lrh.pkt_len = 0xFFFF;  // 11-bit field
  std::array<std::uint8_t, Lrh::kWireSize> wire{};
  lrh.serialize(wire);
  EXPECT_EQ(parse_lrh(wire).pkt_len, 0x07FF);
}

TEST(Lrh, VlOccupiesHighNibble) {
  Lrh lrh;
  lrh.vl = 0xA;
  lrh.lver = 0;
  std::array<std::uint8_t, Lrh::kWireSize> wire{};
  lrh.serialize(wire);
  EXPECT_EQ(wire[0] >> 4, 0xA);  // the nibble ICRC masks to ones
}

TEST(Grh, RoundTrip) {
  Grh grh;
  grh.tclass = 0xAB;
  grh.flow_label = 0xFFFFF;  // 20 bits, max
  grh.pay_len = 4096;
  grh.hop_limit = 63;
  for (std::size_t i = 0; i < 16; ++i) {
    grh.sgid[i] = static_cast<std::uint8_t>(i);
    grh.dgid[i] = static_cast<std::uint8_t>(0xF0 + i);
  }
  std::array<std::uint8_t, Grh::kWireSize> wire{};
  grh.serialize(wire);
  EXPECT_EQ(parse_grh(wire), grh);
}

TEST(Bth, RoundTrip) {
  Bth bth;
  bth.opcode = OpCode::kUdSendOnly;
  bth.se = true;
  bth.migreq = true;
  bth.pad_cnt = 3;
  bth.tver = 0xF;
  bth.pkey = 0x8123;
  bth.resv8a = 0x02;  // auth algorithm id
  bth.dest_qp = 0x00ABCDEF;
  bth.ack_req = true;
  bth.psn = 0x00FEDCBA;
  std::array<std::uint8_t, Bth::kWireSize> wire{};
  bth.serialize(wire);
  EXPECT_EQ(parse_bth(wire), bth);
}

TEST(Bth, QpnAndPsnAre24Bit) {
  Bth bth;
  bth.dest_qp = 0xFFFFFFFF;
  bth.psn = 0xFFFFFFFF;
  std::array<std::uint8_t, Bth::kWireSize> wire{};
  bth.serialize(wire);
  const Bth parsed = parse_bth(wire);
  EXPECT_EQ(parsed.dest_qp, 0x00FFFFFFu);
  EXPECT_EQ(parsed.psn, 0x00FFFFFFu);
}

TEST(Bth, Resv8aIsByte4) {
  // The paper stores the auth algorithm id in the BTH Reserved byte; pin
  // its wire position so the ICRC masking stays aligned with it.
  Bth bth;
  bth.resv8a = 0xA5;
  std::array<std::uint8_t, Bth::kWireSize> wire{};
  bth.serialize(wire);
  EXPECT_EQ(wire[4], 0xA5);
}

TEST(Deth, RoundTrip) {
  Deth deth;
  deth.qkey = 0xDEADBEEF;
  deth.src_qp = 0x00123456;
  std::array<std::uint8_t, Deth::kWireSize> wire{};
  deth.serialize(wire);
  EXPECT_EQ(parse_deth(wire), deth);
}

TEST(Reth, RoundTrip) {
  Reth reth;
  reth.va = 0x0123456789ABCDEFULL;
  reth.rkey = 0xCAFEBABE;
  reth.dma_len = 1 << 20;
  std::array<std::uint8_t, Reth::kWireSize> wire{};
  reth.serialize(wire);
  EXPECT_EQ(parse_reth(wire), reth);
}

TEST(Aeth, RoundTrip) {
  Aeth aeth;
  aeth.syndrome = 0x60;
  aeth.msn = 0x00ABCDEF;
  std::array<std::uint8_t, Aeth::kWireSize> wire{};
  aeth.serialize(wire);
  EXPECT_EQ(parse_aeth(wire), aeth);
}

TEST(OpCodes, ExtensionHeaderPresence) {
  EXPECT_TRUE(opcode_has_deth(OpCode::kUdSendOnly));
  EXPECT_FALSE(opcode_has_deth(OpCode::kRcSendOnly));
  EXPECT_TRUE(opcode_has_reth(OpCode::kRcRdmaWriteOnly));
  EXPECT_FALSE(opcode_has_reth(OpCode::kRcSendOnly));
  EXPECT_TRUE(opcode_has_aeth(OpCode::kRcAck));
  EXPECT_FALSE(opcode_has_aeth(OpCode::kUdSendOnly));
}

TEST(PKeys, MembershipMatching) {
  // Full member (top bit set) matches full or limited with same index.
  EXPECT_TRUE(pkeys_match(0x8001, 0x8001));
  EXPECT_TRUE(pkeys_match(0x8001, 0x0001));  // full + limited
  EXPECT_FALSE(pkeys_match(0x0001, 0x0001)); // limited + limited: no
  EXPECT_FALSE(pkeys_match(0x8001, 0x8002)); // different index
  EXPECT_TRUE(pkeys_match(kDefaultPKey, kDefaultPKey));
}

class HeaderFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeaderFuzzRoundTrip, RandomizedHeadersSurviveRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Lrh lrh;
    lrh.vl = static_cast<VirtualLane>(rng.uniform(16));
    lrh.lver = static_cast<std::uint8_t>(rng.uniform(16));
    lrh.sl = static_cast<ServiceLevel>(rng.uniform(16));
    lrh.lnh = static_cast<std::uint8_t>(rng.uniform(4));
    lrh.dlid = static_cast<Lid>(rng.next_u32());
    lrh.pkt_len = static_cast<std::uint16_t>(rng.uniform(0x800));
    lrh.slid = static_cast<Lid>(rng.next_u32());
    std::array<std::uint8_t, Lrh::kWireSize> wire{};
    lrh.serialize(wire);
    EXPECT_EQ(parse_lrh(wire), lrh);

    Bth bth;
    bth.opcode = OpCode::kRcSendOnly;
    bth.pkey = static_cast<PKeyValue>(rng.next_u32());
    bth.resv8a = static_cast<std::uint8_t>(rng.next_u32());
    bth.dest_qp = rng.next_u32() & kQpnMask;
    bth.psn = rng.next_u32() & kPsnMask;
    std::array<std::uint8_t, Bth::kWireSize> bth_wire{};
    bth.serialize(bth_wire);
    EXPECT_EQ(parse_bth(bth_wire), bth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeaderFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ibsec::ib
