#include "ib/packet.h"

#include <array>

#include "common/annotations.h"
#include "crypto/crc16.h"
#include "crypto/crc32.h"

namespace ibsec::ib {
namespace {

// Room for every header a packet can carry at once.
constexpr std::size_t kMaxHeaderBytes = Lrh::kWireSize + Grh::kWireSize +
                                        Bth::kWireSize + Deth::kWireSize +
                                        Reth::kWireSize + Aeth::kWireSize;
using HeaderBuf = std::array<std::uint8_t, kMaxHeaderBytes>;

template <class Header>
std::uint8_t* put(const Header& header, std::uint8_t* out) {
  header.serialize(std::span<std::uint8_t, Header::kWireSize>(
      out, Header::kWireSize));
  return out + Header::kWireSize;
}

// Serializes every header into `buf`, optionally with the ICRC masking
// applied, and returns the bytes written. Every body consumer — the two
// CRCs, icrc_covered_into and serialize — takes the headers from here and
// the payload in place, so the byte stream is identical by construction.
std::span<const std::uint8_t> write_headers(const Packet& pkt, bool masked,
                                            HeaderBuf& buf) {
  std::uint8_t* p = put(pkt.lrh, buf.data());
  if (masked) {
    buf[0] |= 0xF0;  // LRH.VL nibble -> ones
  }
  if (pkt.grh) {
    std::uint8_t* grh = p;
    p = put(*pkt.grh, p);
    if (masked) {
      // tclass + flow_label live in bytes 0..3 (with ip_ver in the top
      // nibble of byte 0); hop_limit is byte 7 (IBA 7.8.1 / 9.8).
      grh[0] |= 0x0F;
      grh[1] = 0xFF;
      grh[2] = 0xFF;
      grh[3] = 0xFF;
      grh[7] = 0xFF;
    }
  }
  std::uint8_t* bth = p;
  p = put(pkt.bth, p);
  if (masked) {
    bth[4] = 0xFF;  // BTH.resv8a — where the auth algorithm id rides
  }
  if (pkt.deth) p = put(*pkt.deth, p);
  if (pkt.reth) p = put(*pkt.reth, p);
  if (pkt.aeth) p = put(*pkt.aeth, p);
  return {buf.data(), p};
}

std::array<std::uint8_t, 4> icrc_be(std::uint32_t icrc) {
  return {static_cast<std::uint8_t>(icrc >> 24),
          static_cast<std::uint8_t>(icrc >> 16),
          static_cast<std::uint8_t>(icrc >> 8), static_cast<std::uint8_t>(icrc)};
}

bool known_opcode(std::uint8_t raw) {
  switch (static_cast<OpCode>(raw)) {
    case OpCode::kRcSendFirst:
    case OpCode::kRcSendMiddle:
    case OpCode::kRcSendLast:
    case OpCode::kRcSendOnly:
    case OpCode::kRcAck:
    case OpCode::kRcRdmaWriteOnly:
    case OpCode::kRcRdmaReadRequest:
    case OpCode::kRcRdmaReadResponse:
    case OpCode::kUdSendOnly:
      return true;
  }
  return false;
}

}  // namespace

std::size_t Packet::headers_size() const {
  std::size_t size = Lrh::kWireSize + Bth::kWireSize;
  if (grh) size += Grh::kWireSize;
  if (deth) size += Deth::kWireSize;
  if (reth) size += Reth::kWireSize;
  if (aeth) size += Aeth::kWireSize;
  return size;
}

std::size_t Packet::wire_size() const {
  return headers_size() + payload.size() + 4 /*ICRC*/ + 2 /*VCRC*/;
}

void Packet::icrc_covered_into(std::vector<std::uint8_t>& out) const {
  HeaderBuf buf;
  const auto headers = write_headers(*this, /*masked=*/true, buf);
  out.clear();
  out.reserve(headers.size() + payload.size());
  out.insert(out.end(), headers.begin(), headers.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

IBSEC_HOT std::uint32_t Packet::compute_icrc() const {
  HeaderBuf buf;
  crypto::Crc32 crc;
  crc.update(write_headers(*this, /*masked=*/true, buf));
  crc.update(payload);
  return crc.value();
}

IBSEC_HOT std::uint16_t Packet::compute_vcrc() const {
  HeaderBuf buf;
  crypto::Crc16Iba crc;
  crc.update(write_headers(*this, /*masked=*/false, buf));
  crc.update(payload);
  crc.update(icrc_be(icrc));
  return crc.value();
}

void Packet::set_lengths() {
  // pkt_len counts 4-byte words from the first byte of LRH through ICRC.
  lrh.pkt_len = static_cast<std::uint16_t>(
      (headers_size() + payload.size() + 4) / 4);
}

void Packet::finalize() {
  set_lengths();
  icrc = compute_icrc();
  vcrc = compute_vcrc();
}

std::vector<std::uint8_t> Packet::serialize() const {
  HeaderBuf buf;
  const auto headers = write_headers(*this, /*masked=*/false, buf);
  std::vector<std::uint8_t> out;
  out.reserve(wire_size());
  out.insert(out.end(), headers.begin(), headers.end());
  out.insert(out.end(), payload.begin(), payload.end());
  const auto trailer = icrc_be(icrc);
  out.insert(out.end(), trailer.begin(), trailer.end());
  out.push_back(static_cast<std::uint8_t>(vcrc >> 8));
  out.push_back(static_cast<std::uint8_t>(vcrc));
  return out;
}

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> wire) {
  if (wire.size() < Lrh::kWireSize + Bth::kWireSize + 6) return std::nullopt;

  Packet pkt;
  std::size_t offset = 0;
  pkt.lrh = Lrh::parse(std::span<const std::uint8_t, Lrh::kWireSize>(
      &wire[offset], Lrh::kWireSize));
  offset += Lrh::kWireSize;

  if (pkt.lrh.lnh == 3) {
    if (wire.size() < offset + Grh::kWireSize + Bth::kWireSize + 6) {
      return std::nullopt;
    }
    pkt.grh = Grh::parse(std::span<const std::uint8_t, Grh::kWireSize>(
        &wire[offset], Grh::kWireSize));
    offset += Grh::kWireSize;
  }

  if (!known_opcode(wire[offset])) return std::nullopt;
  pkt.bth = Bth::parse(std::span<const std::uint8_t, Bth::kWireSize>(
      &wire[offset], Bth::kWireSize));
  offset += Bth::kWireSize;

  if (opcode_has_deth(pkt.bth.opcode)) {
    if (wire.size() < offset + Deth::kWireSize + 6) return std::nullopt;
    pkt.deth = Deth::parse(std::span<const std::uint8_t, Deth::kWireSize>(
        &wire[offset], Deth::kWireSize));
    offset += Deth::kWireSize;
  }
  if (opcode_has_reth(pkt.bth.opcode)) {
    if (wire.size() < offset + Reth::kWireSize + 6) return std::nullopt;
    pkt.reth = Reth::parse(std::span<const std::uint8_t, Reth::kWireSize>(
        &wire[offset], Reth::kWireSize));
    offset += Reth::kWireSize;
  }
  if (opcode_has_aeth(pkt.bth.opcode)) {
    if (wire.size() < offset + Aeth::kWireSize + 6) return std::nullopt;
    pkt.aeth = Aeth::parse(std::span<const std::uint8_t, Aeth::kWireSize>(
        &wire[offset], Aeth::kWireSize));
    offset += Aeth::kWireSize;
  }

  if (wire.size() < offset + 6) return std::nullopt;
  const std::size_t payload_len = wire.size() - offset - 6;
  pkt.payload.assign(wire.begin() + static_cast<long>(offset),
                     wire.begin() + static_cast<long>(offset + payload_len));
  offset += payload_len;

  pkt.icrc = static_cast<std::uint32_t>(wire[offset]) << 24 |
             static_cast<std::uint32_t>(wire[offset + 1]) << 16 |
             static_cast<std::uint32_t>(wire[offset + 2]) << 8 |
             wire[offset + 3];
  pkt.vcrc = static_cast<std::uint16_t>(wire[offset + 4] << 8 |
                                        wire[offset + 5]);
  return pkt;
}

}  // namespace ibsec::ib
