// CRC-32 (IEEE 802.3 polynomial 0x04C11DB7, reflected form 0xEDB88320).
//
// This is the polynomial the InfiniBand Architecture uses for the Invariant
// CRC (ICRC). The paper's Table 4 lists CRC-32 as the throughput baseline
// the MAC candidates are compared against.
//
// Crc32 has two kernels: a slice-by-8 table (the reference for the fast
// path, and the fallback) and, on x86-64 CPUs with PCLMULQDQ, the
// carry-less-multiply folding of crypto/crc_fold.h. Updates of 64 bytes and
// more go to the kernel picked once per process from CPUID; shorter ones,
// and every update on other CPUs, run the table. A byte-at-a-time
// reference stays for differential tests.
#pragma once

#include <cstdint>
#include <span>

namespace ibsec::crypto {

/// Incremental CRC-32 with the standard init/xorout (0xFFFFFFFF both).
/// crc32("123456789") == 0xCBF43926.
class Crc32 {
 public:
  Crc32() = default;

  void update(std::span<const std::uint8_t> data);
  /// Finalized value; the object may keep absorbing afterwards (value() is a
  /// pure function of the bytes seen so far).
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience (same kernels as Crc32).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Byte-at-a-time reference implementation, kept for differential testing
/// against the fast kernels.
std::uint32_t crc32_reference(std::span<const std::uint8_t> data);

namespace detail {

/// The kernels behind Crc32, declared so the tests and the Table 4 bench
/// can run each one directly. Each advances a raw state (before the final
/// XOR) over `data`.
std::uint32_t crc32_update_scalar(std::uint32_t state,
                                  std::span<const std::uint8_t> data);

#if defined(__x86_64__)
/// PCLMULQDQ folding, any length (under 64 bytes it runs the table); call
/// only when cpu().pclmul.
std::uint32_t crc32_update_pclmul(std::uint32_t state,
                                  std::span<const std::uint8_t> data);
#endif

}  // namespace detail

}  // namespace ibsec::crypto
