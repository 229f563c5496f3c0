// Hex decoding for writing test vectors (the simulator only encodes hex, in
// common/hex.h).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace ibsec {

/// Parses a hex string (case-insensitive, even length, no separators).
/// Throws std::invalid_argument on malformed input.
std::vector<std::uint8_t> from_hex(std::string_view hex);

}  // namespace ibsec
