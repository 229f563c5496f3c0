// Hex encoding and ASCII byte helpers for digests, logs and examples.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ibsec {

/// Lower-case hex string of `data` ("" for empty input).
std::string to_hex(std::span<const std::uint8_t> data);

/// Bytes of an ASCII string, for feeding string test vectors to digests.
std::vector<std::uint8_t> ascii_bytes(std::string_view s);

}  // namespace ibsec
