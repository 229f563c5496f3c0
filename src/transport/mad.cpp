#include "transport/mad.h"

#include "common/check.h"

namespace ibsec::transport {
namespace {

void put16(std::vector<std::uint8_t>& b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::uint8_t>(v >> 8);
  b[at + 1] = static_cast<std::uint8_t>(v);
}
std::uint16_t get16(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] << 8 | b[at + 1]);
}
void put32(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * (3 - i)));
  }
}
std::uint32_t get32(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = v << 8 | b[at + static_cast<std::size_t>(i)];
  return v;
}
void put64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  put32(b, at, static_cast<std::uint32_t>(v >> 32));
  put32(b, at + 4, static_cast<std::uint32_t>(v));
}
std::uint64_t get64(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint64_t>(get32(b, at)) << 32 | get32(b, at + 4);
}

// Fixed field offsets inside the 256-byte MAD payload.
constexpr std::size_t kOffType = 0;
constexpr std::size_t kOffSrcNode = 1;
constexpr std::size_t kOffPkey = 3;
constexpr std::size_t kOffQkey = 5;
constexpr std::size_t kOffSrcQp = 9;
constexpr std::size_t kOffDstQp = 13;
constexpr std::size_t kOffMkey = 17;
constexpr std::size_t kOffAttr = 25;
constexpr std::size_t kOffValue = 29;
constexpr std::size_t kOffAlg = 33;
constexpr std::size_t kOffBlobLen = 34;
constexpr std::size_t kOffBlob = 36;

}  // namespace

void Mad::serialize(std::vector<std::uint8_t>& out) const {
  // parse() rejects a longer blob, and past 220 bytes it would overrun the
  // payload: a caller's key material must fit the field.
  IBSEC_CHECK(blob.size() <= kMaxBlobSize)
      << "MAD blob of " << blob.size() << " bytes exceeds " << kMaxBlobSize;
  out.assign(kWireSize, 0);
  out[kOffType] = static_cast<std::uint8_t>(type);
  put16(out, kOffSrcNode, src_node);
  put16(out, kOffPkey, pkey);
  put32(out, kOffQkey, qkey);
  put32(out, kOffSrcQp, src_qp);
  put32(out, kOffDstQp, dst_qp);
  put64(out, kOffMkey, m_key);
  put32(out, kOffAttr, attribute);
  put32(out, kOffValue, value);
  out[kOffAlg] = static_cast<std::uint8_t>(auth_alg);
  put16(out, kOffBlobLen, static_cast<std::uint16_t>(blob.size()));
  std::copy(blob.begin(), blob.end(),
            out.begin() + static_cast<long>(kOffBlob));
}

std::optional<Mad> Mad::parse(std::span<const std::uint8_t> payload) {
  if (payload.size() < kWireSize) return std::nullopt;
  Mad mad;
  const std::uint8_t raw_type = payload[kOffType];
  if (raw_type < 1 || raw_type > 6) return std::nullopt;
  mad.type = static_cast<MadType>(raw_type);
  mad.src_node = get16(payload, kOffSrcNode);
  mad.pkey = get16(payload, kOffPkey);
  mad.qkey = get32(payload, kOffQkey);
  mad.src_qp = get32(payload, kOffSrcQp);
  mad.dst_qp = get32(payload, kOffDstQp);
  mad.m_key = get64(payload, kOffMkey);
  mad.attribute = get32(payload, kOffAttr);
  mad.value = get32(payload, kOffValue);
  mad.auth_alg = static_cast<crypto::AuthAlgorithm>(payload[kOffAlg]);
  const std::uint16_t blob_len = get16(payload, kOffBlobLen);
  if (blob_len > kMaxBlobSize) return std::nullopt;
  mad.blob.assign(payload.begin() + kOffBlob,
                  payload.begin() + kOffBlob + blob_len);
  return mad;
}

}  // namespace ibsec::transport
