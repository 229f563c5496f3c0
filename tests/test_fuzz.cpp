// Robustness fuzzing of the wire-facing parsers: random buffers, truncated
// valid packets, bit-flipped headers. Parsers must never crash or read out
// of bounds (run under ASan in CI-style builds) and accepted inputs must be
// internally consistent.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "ib/packet.h"
#include "transport/channel_adapter.h"
#include "transport/mad.h"
#include "workload/attack_campaign.h"
#include "support/wire_parse.h"

namespace ibsec {
namespace {

class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, RandomBuffersNeverCrash) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.uniform(300);
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
    const auto parsed = ib::parse_packet(buf);
    if (parsed.has_value()) {
      // Accepted input re-serializes to a canonical form (reserved bits
      // zeroed); that canonical form must be a fixed point.
      const auto canonical = parsed->serialize();
      EXPECT_EQ(canonical.size(), buf.size());
      const auto reparsed = ib::parse_packet(canonical);
      ASSERT_TRUE(reparsed.has_value());
      EXPECT_EQ(reparsed->serialize(), canonical);
    }
  }
}

TEST_P(PacketFuzz, TruncationsOfValidPacketNeverCrash) {
  Rng rng(GetParam() + 1000);
  ib::Packet pkt;
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.deth = ib::Deth{0x1234, 5};
  pkt.payload.assign(128, 0);
  for (auto& b : pkt.payload) b = static_cast<std::uint8_t>(rng.next_u32());
  pkt.finalize();
  const auto wire = pkt.serialize();
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    const auto parsed = ib::parse_packet(std::span(wire).first(len));
    if (len == wire.size()) {
      EXPECT_TRUE(parsed.has_value());
    }
    // Shorter prefixes may parse as a packet with a shorter payload — they
    // must then fail the CRC checks, never crash.
    if (parsed.has_value() && len < wire.size()) {
      EXPECT_FALSE(parsed->vcrc_valid());
    }
  }
}

TEST_P(PacketFuzz, HeaderBitFlipsNeverCrash) {
  Rng rng(GetParam() + 2000);
  ib::Packet pkt;
  pkt.bth.opcode = ib::OpCode::kRcRdmaWriteOnly;
  pkt.reth = ib::Reth{0x1000, 0xAA, 64};
  pkt.payload.assign(64, 0x7E);
  pkt.finalize();
  const auto wire = pkt.serialize();
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = wire;
    const std::size_t byte = rng.uniform(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(1 << rng.uniform(8));
    const auto parsed = ib::parse_packet(mutated);
    if (parsed.has_value()) {
      // A surviving flipped bit must be caught by VCRC — unless the flip
      // hit the VCRC field itself (trailing 2 bytes) or a reserved bit
      // that parsing canonicalizes away (serialize() then equals the
      // original wire image, CRC included).
      if (byte < mutated.size() - 2 && parsed->serialize() != wire) {
        EXPECT_FALSE(parsed->vcrc_valid()) << "byte " << byte;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz, ::testing::Values(1, 2, 3));

class MadFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MadFuzz, RandomBuffersNeverCrash) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.uniform(2) ? transport::Mad::kWireSize
                                           : rng.uniform(300);
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
    const auto parsed = transport::Mad::parse(buf);
    if (parsed.has_value()) {
      EXPECT_LE(parsed->blob.size(), transport::Mad::kMaxBlobSize);
      // Round-trip through serialize/parse preserves every field.
      std::vector<std::uint8_t> wire;
      parsed->serialize(wire);
      const auto reparsed = transport::Mad::parse(wire);
      ASSERT_TRUE(reparsed.has_value());
      EXPECT_EQ(reparsed->type, parsed->type);
      EXPECT_EQ(reparsed->blob, parsed->blob);
      EXPECT_EQ(reparsed->m_key, parsed->m_key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MadFuzz, ::testing::Values(7, 8));

// --- RC control-plane mutations ----------------------------------------------
// The ACK/NAK handler faces the wire: forged, truncated or misdirected
// acknowledgements must be dropped and counted (rc_bad_control), never
// crash the CA, and — critically — never spoof-complete a send window.
struct RcControlFuzz : public ::testing::Test {
  RcControlFuzz() {
    fabric::FabricConfig fcfg;
    fcfg.mesh_width = 2;
    fcfg.mesh_height = 1;
    fabric = std::make_unique<fabric::Fabric>(fcfg);
    transport::RcConfig rc;
    rc.enabled = true;
    rc.retransmit_timeout = 20 * time_literals::kMicrosecond;
    for (int node = 0; node < 2; ++node) {
      cas.push_back(std::make_unique<transport::ChannelAdapter>(
          *fabric, node, pki, 55, /*rsa_bits=*/256));
      cas.back()->set_rc_config(rc);
    }
    auto& a = cas[0]->create_qp(transport::ServiceType::kReliableConnection,
                                0xFFFF);
    auto& b = cas[1]->create_qp(transport::ServiceType::kReliableConnection,
                                0xFFFF);
    cas[0]->bind_rc(a.qpn, 1, b.qpn);
    cas[1]->bind_rc(b.qpn, 0, a.qpn);
    src_qpn = a.qpn;
    dst_qpn = b.qpn;
  }

  /// A kRcAck skeleton from node 1 aimed at node 0's RC QP.
  ib::Packet forged_control() {
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.sl = pkt.lrh.vl;
    pkt.lrh.slid = fabric->lid_of_node(1);
    pkt.lrh.dlid = fabric->lid_of_node(0);
    pkt.bth.opcode = ib::OpCode::kRcAck;
    pkt.bth.pkey = 0xFFFF;
    pkt.bth.dest_qp = src_qpn;
    pkt.meta.src_qp = dst_qpn;
    pkt.meta.src_node = 1;
    pkt.meta.dst_node = 0;
    return pkt;
  }

  transport::PkiDirectory pki;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<transport::ChannelAdapter>> cas;
  ib::Qpn src_qpn = 0, dst_qpn = 0;
};

TEST_F(RcControlFuzz, ForgedAckWithFuturePsnCannotSpoofCompleteWindow) {
  int delivered = 0;
  cas[1]->set_message_handler(
      [&](std::span<const std::uint8_t>, const transport::QueuePair&) {
        ++delivered;
      });
  ASSERT_TRUE(cas[0]->post_message(
      src_qpn, std::vector<std::uint8_t>(3000, 0x11),
      ib::PacketMeta::TrafficClass::kBestEffort));
  // Spoofed cumulative ACK far beyond anything sent: must not erase the
  // window (the real delivery still completes it) and must be counted.
  ib::Packet ack = forged_control();
  ack.bth.psn = 0x123456;
  ack.aeth = ib::Aeth{transport::kAethAck, 0x123456};
  ack.finalize();
  cas[1]->inject_raw(std::move(ack));
  fabric->simulator().run();

  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(cas[0]->find_qp(src_qpn)->requester.window().empty());
  EXPECT_GE(cas[0]->retire_obs().rc_bad_control->value(), 1u);
  EXPECT_EQ(cas[0]->rc_obs().retry_exhausted->value(), 0u);
}

TEST_F(RcControlFuzz, AckVariantsNeverCrashAndAreCounted) {
  // Missing AETH entirely.
  ib::Packet no_aeth = forged_control();
  no_aeth.finalize();
  cas[1]->inject_raw(std::move(no_aeth));
  // NAK naming a PSN the sender never reached.
  ib::Packet wild_nak = forged_control();
  wild_nak.aeth = ib::Aeth{transport::kAethNakPsnSequence, 0x7FFFFF};
  wild_nak.finalize();
  cas[1]->inject_raw(std::move(wild_nak));
  // Unknown AETH syndrome.
  ib::Packet bad_syndrome = forged_control();
  bad_syndrome.aeth = ib::Aeth{0x3F, 0};
  bad_syndrome.finalize();
  cas[1]->inject_raw(std::move(bad_syndrome));
  // ACK aimed at a UD QP (no RC state at all).
  auto& ud = cas[0]->create_qp(transport::ServiceType::kUnreliableDatagram,
                               0xFFFF);
  ib::Packet ud_ack = forged_control();
  ud_ack.bth.dest_qp = ud.qpn;
  ud_ack.aeth = ib::Aeth{transport::kAethAck, 0};
  ud_ack.finalize();
  cas[1]->inject_raw(std::move(ud_ack));
  // ACK for a QPN that doesn't exist.
  ib::Packet ghost = forged_control();
  ghost.bth.dest_qp = 0xDEAD;
  ghost.aeth = ib::Aeth{transport::kAethAck, 0};
  ghost.finalize();
  cas[1]->inject_raw(std::move(ghost));

  fabric->simulator().run();
  // All five were dropped and counted; nothing delivered, nothing broke.
  EXPECT_EQ(cas[0]->retire_obs().rc_bad_control->value(), 5u);
  EXPECT_EQ(cas[0]->retire_obs().delivered->value(), 0u);
  EXPECT_FALSE(cas[0]->find_qp(src_qpn)->requester.failed());
}

TEST_F(RcControlFuzz, TruncatedAckWirePrefixesNeverCrash) {
  ib::Packet ack = forged_control();
  ack.aeth = ib::Aeth{transport::kAethAck, 0x000123};
  ack.finalize();
  const auto wire = ack.serialize();
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    const auto parsed = ib::parse_packet(std::span(wire).first(len));
    if (parsed.has_value() && len < wire.size()) {
      EXPECT_FALSE(parsed->vcrc_valid());
    }
  }
  const auto full = ib::parse_packet(wire);
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(full->aeth.has_value());
  EXPECT_EQ(full->aeth->syndrome, transport::kAethAck);
  EXPECT_EQ(full->aeth->msn, 0x000123u);
}

// --- attack-spec grammar fuzz ------------------------------------------------
// The `--attack` spec parser faces the command line: arbitrary strings must
// never crash it, and anything it accepts must survive a canonical
// round-trip (to_string is a fixed point of parse ∘ to_string).
class AttackSpecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttackSpecFuzz, RandomStringsNeverCrashAndAcceptedSpecsCanonicalize) {
  Rng rng(GetParam());
  // Grammar-adjacent alphabet so a useful fraction of inputs reach the
  // deeper key/value paths instead of dying at the first '='.
  const std::string_view alphabet =
      "0123456789;=:,.-abcdefghijklmnopqrstuvwxyz u";
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string s;
    const std::size_t len = rng.uniform(80);
    for (std::size_t i = 0; i < len; ++i) {
      s += alphabet[rng.uniform(alphabet.size())];
    }
    const auto parsed = workload::AttackCampaignSpec::parse(s);
    if (!parsed.has_value()) continue;
    ++accepted;
    const std::string canon = parsed->to_string();
    const auto reparsed = workload::AttackCampaignSpec::parse(canon);
    ASSERT_TRUE(reparsed.has_value()) << canon;
    EXPECT_EQ(reparsed->to_string(), canon) << "from: " << s;
  }
  EXPECT_GT(accepted, 0);  // at least the empty/keyless strings get through
}

TEST_P(AttackSpecFuzz, MutatedValidSpecsNeverCrash) {
  Rng rng(GetParam() + 500);
  const std::string base =
      workload::AttackCampaignSpec::parse(
          "seed=9;attack=scan:count=50,keyspace=16;"
          "attack=rc-spoof:node=2,victim=3,interval=1.5us,qpn-range=8;"
          "attack=side-channel:epochs=6")
          ->to_string();
  const std::string_view alphabet = "0123456789;=:,.-abcdefghijklmnopqrstuvwxyz";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.uniform(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.uniform(mutated.size());
      if (rng.uniform(4) == 0) {
        mutated.erase(at, 1);  // deletions hit the structural separators
        if (mutated.empty()) break;
      } else {
        mutated[at] = alphabet[rng.uniform(alphabet.size())];
      }
    }
    const auto parsed = workload::AttackCampaignSpec::parse(mutated);
    if (parsed.has_value()) {
      const auto reparsed =
          workload::AttackCampaignSpec::parse(parsed->to_string());
      ASSERT_TRUE(reparsed.has_value()) << mutated;
      EXPECT_EQ(reparsed->to_string(), parsed->to_string()) << mutated;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttackSpecFuzz, ::testing::Values(21, 22, 23));

// --- key-MAD blobs -----------------------------------------------------------
// A key MAD's blob reaches ChannelAdapter::unwrap straight off the wire. The
// RSA layer fails closed (IBSEC_CHECK) on an operand wider than BigInt's
// capacity, so no blob length may reach that check: every forged, truncated
// or extended blob must come back as nullopt or as a payload that fits the
// padding (at most k - 11 bytes for a k-byte modulus), never abort.
class UnwrapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnwrapFuzz, BlobsOfEveryLengthNeverAbort) {
  fabric::FabricConfig fcfg;
  fcfg.mesh_width = 2;
  fcfg.mesh_height = 1;
  fabric::Fabric fabric(fcfg);
  transport::PkiDirectory pki;
  transport::ChannelAdapter ca0(fabric, 0, pki, 55, /*rsa_bits=*/256);
  transport::ChannelAdapter ca1(fabric, 1, pki, 55, /*rsa_bits=*/256);
  const std::vector<std::uint8_t> secret(16, 0x5A);
  const auto honest = ca1.wrap_for(0, secret);
  ASSERT_TRUE(honest.has_value());
  const std::size_t k = honest->size();
  ASSERT_EQ(ca0.unwrap(*honest), secret);

  Rng rng(GetParam());
  const auto check = [&](const std::vector<std::uint8_t>& blob) {
    const auto pt = ca0.unwrap(blob);
    if (pt.has_value()) {
      EXPECT_LE(pt->size(), k - 11) << "blob length " << blob.size();
    }
  };
  for (std::size_t len = 0; len <= 2 * k + 1; ++len) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::uint8_t> random(len);
      for (auto& b : random) b = static_cast<std::uint8_t>(rng.next_u32());
      check(random);
      // The honest blob cut or extended to `len`, then a few bytes flipped.
      std::vector<std::uint8_t> mutated = *honest;
      mutated.resize(len, static_cast<std::uint8_t>(rng.next_u32()));
      for (int flip = 0; flip < 1 + trial && len > 0; ++flip) {
        mutated[rng.uniform(len)] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
      check(mutated);
    }
  }
  // All-0xFF blobs are at or above every modulus of their width.
  for (std::size_t len = 0; len <= 2 * k + 1; ++len) {
    check(std::vector<std::uint8_t>(len, 0xFF));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnwrapFuzz, ::testing::Values(31, 32));

TEST(PacketFuzzMisc, ParseSerializeIdempotence) {
  Rng rng(42);
  int accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> buf(26 + rng.uniform(64));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u32());
    buf[8] = 0x64;  // steer towards a known opcode (UD SEND)
    const auto p1 = ib::parse_packet(buf);
    if (!p1) continue;
    ++accepted;
    const auto p2 = ib::parse_packet(p1->serialize());
    ASSERT_TRUE(p2.has_value());
    EXPECT_EQ(p2->serialize(), p1->serialize());
  }
  EXPECT_GT(accepted, 100);  // the steering actually exercised the path
}

}  // namespace
}  // namespace ibsec
