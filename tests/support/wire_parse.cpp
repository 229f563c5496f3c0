#include "support/wire_parse.h"

#include <algorithm>

namespace ibsec::ib {
namespace {

std::uint16_t load_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t load_be24(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 16 |
         static_cast<std::uint32_t>(p[1]) << 8 | p[2];
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

std::uint64_t load_be64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_be32(p)) << 32 | load_be32(p + 4);
}

bool known_opcode(std::uint8_t raw) {
  switch (static_cast<OpCode>(raw)) {
    case OpCode::kRcSendFirst:
    case OpCode::kRcSendMiddle:
    case OpCode::kRcSendLast:
    case OpCode::kRcSendOnly:
    case OpCode::kRcAck:
    case OpCode::kRcRdmaWriteOnly:
    case OpCode::kUdSendOnly:
      return true;
  }
  return false;
}

}  // namespace

bool opcode_has_deth(OpCode op) { return op == OpCode::kUdSendOnly; }

bool opcode_has_reth(OpCode op) {
  return op == OpCode::kRcRdmaWriteOnly;
}

bool opcode_has_aeth(OpCode op) {
  return op == OpCode::kRcAck;
}

Lrh parse_lrh(std::span<const std::uint8_t, Lrh::kWireSize> in) {
  Lrh lrh;
  lrh.vl = static_cast<VirtualLane>(in[0] >> 4);
  lrh.lver = in[0] & 0xF;
  lrh.sl = static_cast<ServiceLevel>(in[1] >> 4);
  lrh.lnh = in[1] & 0x3;
  lrh.dlid = load_be16(&in[2]);
  lrh.pkt_len = load_be16(&in[4]) & 0x07FF;
  lrh.slid = load_be16(&in[6]);
  return lrh;
}

Grh parse_grh(std::span<const std::uint8_t, Grh::kWireSize> in) {
  Grh grh;
  grh.ip_ver = in[0] >> 4;
  grh.tclass = static_cast<std::uint8_t>((in[0] & 0xF) << 4 | (in[1] >> 4));
  grh.flow_label = static_cast<std::uint32_t>(in[1] & 0xF) << 16 |
                   load_be16(&in[2]);
  grh.pay_len = load_be16(&in[4]);
  grh.nxt_hdr = in[6];
  grh.hop_limit = in[7];
  std::copy(in.begin() + 8, in.begin() + 24, grh.sgid.begin());
  std::copy(in.begin() + 24, in.begin() + 40, grh.dgid.begin());
  return grh;
}

Bth parse_bth(std::span<const std::uint8_t, Bth::kWireSize> in) {
  Bth bth;
  bth.opcode = static_cast<OpCode>(in[0]);
  bth.se = (in[1] & 0x80) != 0;
  bth.migreq = (in[1] & 0x40) != 0;
  bth.pad_cnt = (in[1] >> 4) & 0x3;
  bth.tver = in[1] & 0xF;
  bth.pkey = load_be16(&in[2]);
  bth.resv8a = in[4];
  bth.dest_qp = load_be24(&in[5]);
  bth.ack_req = (in[8] & 0x80) != 0;
  bth.psn = load_be24(&in[9]);
  return bth;
}

Deth parse_deth(std::span<const std::uint8_t, Deth::kWireSize> in) {
  Deth deth;
  deth.qkey = load_be32(&in[0]);
  deth.src_qp = load_be24(&in[5]);
  return deth;
}

Reth parse_reth(std::span<const std::uint8_t, Reth::kWireSize> in) {
  Reth reth;
  reth.va = load_be64(&in[0]);
  reth.rkey = load_be32(&in[8]);
  reth.dma_len = load_be32(&in[12]);
  return reth;
}

Aeth parse_aeth(std::span<const std::uint8_t, Aeth::kWireSize> in) {
  Aeth aeth;
  aeth.syndrome = in[0];
  aeth.msn = load_be24(&in[1]);
  return aeth;
}

std::optional<Packet> parse_packet(std::span<const std::uint8_t> wire) {
  if (wire.size() < Lrh::kWireSize + Bth::kWireSize + 6) return std::nullopt;

  Packet pkt;
  std::size_t offset = 0;
  pkt.lrh = parse_lrh(std::span<const std::uint8_t, Lrh::kWireSize>(
      &wire[offset], Lrh::kWireSize));
  offset += Lrh::kWireSize;

  if (pkt.lrh.lnh == 3) {
    if (wire.size() < offset + Grh::kWireSize + Bth::kWireSize + 6) {
      return std::nullopt;
    }
    pkt.grh = parse_grh(std::span<const std::uint8_t, Grh::kWireSize>(
        &wire[offset], Grh::kWireSize));
    offset += Grh::kWireSize;
  }

  if (!known_opcode(wire[offset])) return std::nullopt;
  pkt.bth = parse_bth(std::span<const std::uint8_t, Bth::kWireSize>(
      &wire[offset], Bth::kWireSize));
  offset += Bth::kWireSize;

  if (opcode_has_deth(pkt.bth.opcode)) {
    if (wire.size() < offset + Deth::kWireSize + 6) return std::nullopt;
    pkt.deth = parse_deth(std::span<const std::uint8_t, Deth::kWireSize>(
        &wire[offset], Deth::kWireSize));
    offset += Deth::kWireSize;
  }
  if (opcode_has_reth(pkt.bth.opcode)) {
    if (wire.size() < offset + Reth::kWireSize + 6) return std::nullopt;
    pkt.reth = parse_reth(std::span<const std::uint8_t, Reth::kWireSize>(
        &wire[offset], Reth::kWireSize));
    offset += Reth::kWireSize;
  }
  if (opcode_has_aeth(pkt.bth.opcode)) {
    if (wire.size() < offset + Aeth::kWireSize + 6) return std::nullopt;
    pkt.aeth = parse_aeth(std::span<const std::uint8_t, Aeth::kWireSize>(
        &wire[offset], Aeth::kWireSize));
    offset += Aeth::kWireSize;
  }

  if (wire.size() < offset + 6) return std::nullopt;
  const std::size_t payload_len = wire.size() - offset - 6;
  pkt.payload.assign(wire.begin() + static_cast<long>(offset),
                     wire.begin() + static_cast<long>(offset + payload_len));
  offset += payload_len;

  pkt.icrc = load_be32(&wire[offset]);
  pkt.vcrc = load_be16(&wire[offset + 4]);
  return pkt;
}

}  // namespace ibsec::ib
