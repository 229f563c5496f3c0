#include "ib/headers.h"

namespace ibsec::ib {
namespace {

void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void store_be24(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 16);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

}  // namespace

void Lrh::serialize(std::span<std::uint8_t, kWireSize> out) const {
  out[0] = static_cast<std::uint8_t>((vl & 0xF) << 4 | (lver & 0xF));
  out[1] = static_cast<std::uint8_t>((sl & 0xF) << 4 | (lnh & 0x3));
  store_be16(&out[2], dlid);
  store_be16(&out[4], pkt_len & 0x07FF);
  store_be16(&out[6], slid);
}

void Grh::serialize(std::span<std::uint8_t, kWireSize> out) const {
  out[0] = static_cast<std::uint8_t>((ip_ver & 0xF) << 4 | (tclass >> 4));
  out[1] = static_cast<std::uint8_t>((tclass & 0xF) << 4 |
                                     ((flow_label >> 16) & 0xF));
  store_be16(&out[2], static_cast<std::uint16_t>(flow_label));
  store_be16(&out[4], pay_len);
  out[6] = nxt_hdr;
  out[7] = hop_limit;
  std::copy(sgid.begin(), sgid.end(), out.begin() + 8);
  std::copy(dgid.begin(), dgid.end(), out.begin() + 24);
}

void Bth::serialize(std::span<std::uint8_t, kWireSize> out) const {
  out[0] = static_cast<std::uint8_t>(opcode);
  out[1] = static_cast<std::uint8_t>((se ? 0x80 : 0) | (migreq ? 0x40 : 0) |
                                     ((pad_cnt & 0x3) << 4) | (tver & 0xF));
  store_be16(&out[2], pkey);
  out[4] = resv8a;
  store_be24(&out[5], dest_qp & kQpnMask);
  out[8] = static_cast<std::uint8_t>(ack_req ? 0x80 : 0);  // resv7b zero
  store_be24(&out[9], psn & kPsnMask);
}

void Deth::serialize(std::span<std::uint8_t, kWireSize> out) const {
  store_be32(&out[0], qkey);
  out[4] = 0;  // reserved
  store_be24(&out[5], src_qp & kQpnMask);
}

void Reth::serialize(std::span<std::uint8_t, kWireSize> out) const {
  store_be64(&out[0], va);
  store_be32(&out[8], rkey);
  store_be32(&out[12], dma_len);
}

void Aeth::serialize(std::span<std::uint8_t, kWireSize> out) const {
  out[0] = syndrome;
  store_be24(&out[1], msn & 0x00FFFFFF);
}

}  // namespace ibsec::ib
