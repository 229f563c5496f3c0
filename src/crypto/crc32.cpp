#include "crypto/crc32.h"

#include <array>

#include "common/annotations.h"
#include "crypto/cpu.h"
#include "crypto/crc_fold.h"

namespace ibsec::crypto {
namespace {

constexpr std::uint32_t kPolyReflected = 0xEDB88320u;

struct Tables {
  // t[k][b]: CRC contribution of byte b positioned k bytes before the end of
  // an 8-byte group (slice-by-8).
  std::array<std::array<std::uint32_t, 256>, 8> t;
};

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
    }
    tables.t[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = tables.t[k - 1][b];
      tables.t[k][b] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

const Tables kTables = make_tables();

using UpdateFn = std::uint32_t (*)(std::uint32_t,
                                   std::span<const std::uint8_t>);

UpdateFn pick_kernel() {
#if defined(__x86_64__)
  if (cpu().pclmul) return &detail::crc32_update_pclmul;
#endif
  return &detail::crc32_update_scalar;
}

/// Short updates run the table kernel inline; longer ones the kernel this
/// CPU runs, chosen on first use and fixed for the process.
std::uint32_t dispatch(std::uint32_t crc,
                       std::span<const std::uint8_t> data) {
  if (data.size() < detail::kCrcFoldMinBytes) {
    return detail::crc32_update_scalar(crc, data);
  }
  static const UpdateFn kernel = pick_kernel();
  return kernel(crc, data);
}

}  // namespace

namespace detail {

std::uint32_t crc32_update_scalar(std::uint32_t crc,
                                  std::span<const std::uint8_t> data) {
  const auto& t = kTables.t;
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 8 <= n; i += 8) {
    // Fold eight bytes at once. Loads are byte-wise so alignment and host
    // endianness are irrelevant.
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[i]) |
                                    static_cast<std::uint32_t>(data[i + 1]) << 8 |
                                    static_cast<std::uint32_t>(data[i + 2]) << 16 |
                                    static_cast<std::uint32_t>(data[i + 3]) << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][data[i + 4]] ^ t[2][data[i + 5]] ^
          t[1][data[i + 6]] ^ t[0][data[i + 7]];
  }
  for (; i < n; ++i) {
    crc = (crc >> 8) ^ t[0][(crc ^ data[i]) & 0xFFu];
  }
  return crc;
}

#if defined(__x86_64__)

constexpr CrcFoldKeys kFoldKeys = crc_fold_keys(kPolyReflected, 32);
// The derivation reproduces the multipliers published for this polynomial
// (Gopal et al., Intel 2009).
static_assert(kFoldKeys.k512_lo == 0x0154442bd4 &&
              kFoldKeys.k512_hi == 0x01c6e41596 &&
              kFoldKeys.k128_lo == 0x01751997d0 &&
              kFoldKeys.k128_hi == 0x00ccaa009e);

std::uint32_t crc32_update_pclmul(std::uint32_t crc,
                                  std::span<const std::uint8_t> data) {
  if (data.size() < kCrcFoldMinBytes) return crc32_update_scalar(crc, data);
  std::array<std::uint8_t, 16> residue{};
  const auto tail = crc_fold_pclmul(crc, data, kFoldKeys, residue);
  return crc32_update_scalar(crc32_update_scalar(0, residue), tail);
}

#endif  // __x86_64__

}  // namespace detail

IBSEC_HOT void Crc32::update(std::span<const std::uint8_t> data) {
  state_ = dispatch(state_, data);
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return dispatch(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_reference(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace ibsec::crypto
