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

}  // namespace ibsec::ib
