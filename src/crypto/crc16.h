// CRC-16 with the InfiniBand VCRC polynomial.
//
// IBA's Variant CRC covers the whole packet from LRH to the byte before the
// VCRC and is recomputed at every switch hop (variant fields may change).
// The spec's generator is x^16 + x^12 + x^3 + x + 1 (0x100B), CRC-16-IBA,
// init 0xFFFF, reflected, final XOR 0xFFFF.
//
// The kernels mirror crc32.h: a slice-by-8 table, and on x86-64 CPUs with
// PCLMULQDQ the shared carry-less-multiply fold of crypto/crc_fold.h with
// this polynomial's multipliers, picked once per process for updates of 64
// bytes and more.
#pragma once

#include <cstdint>
#include <span>

namespace ibsec::crypto {

/// One-shot VCRC over a byte range.
std::uint16_t crc16_iba(std::span<const std::uint8_t> data);

/// Incremental VCRC: feed the packet in pieces (headers from stack scratch,
/// payload in place, then the ICRC) and read the same value crc16_iba()
/// returns over the concatenation — no materialized buffer needed.
class Crc16Iba {
 public:
  void update(std::span<const std::uint8_t> data);
  std::uint16_t value() const {
    return static_cast<std::uint16_t>(state_ ^ 0xFFFFu);
  }
  void reset() { state_ = 0xFFFFu; }

 private:
  std::uint16_t state_ = 0xFFFFu;
};

/// Bit-at-a-time reference implementation for differential tests.
std::uint16_t crc16_iba_reference(std::span<const std::uint8_t> data);

namespace detail {

/// The kernels behind Crc16Iba, declared so the tests can run each one
/// directly. Each advances a raw state (before the final XOR) over `data`.
std::uint16_t crc16_iba_update_scalar(std::uint16_t state,
                                      std::span<const std::uint8_t> data);

#if defined(__x86_64__)
/// PCLMULQDQ folding, any length (under 64 bytes it runs the table); call
/// only when cpu().pclmul.
std::uint16_t crc16_iba_update_pclmul(std::uint16_t state,
                                      std::span<const std::uint8_t> data);
#endif

}  // namespace detail

}  // namespace ibsec::crypto
