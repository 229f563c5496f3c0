#include "support/from_hex.h"

#include <stdexcept>

namespace ibsec {
namespace {

int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex digit");
}

}  // namespace

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) |
                                            nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace ibsec
