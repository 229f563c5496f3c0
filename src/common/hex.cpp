#include "common/hex.h"

namespace ibsec {

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> ascii_bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

}  // namespace ibsec
