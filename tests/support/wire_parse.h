// Wire-image readers, the oracles the header and packet serializers are
// checked against. The simulator builds packets as structs and never parses
// a wire image, so these live with the tests and not in src/.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "ib/headers.h"
#include "ib/packet.h"

namespace ibsec::ib {

/// Which extension headers follow the BTH for an opcode.
bool opcode_has_deth(OpCode op);
bool opcode_has_reth(OpCode op);
bool opcode_has_aeth(OpCode op);

Lrh parse_lrh(std::span<const std::uint8_t, Lrh::kWireSize> in);
Grh parse_grh(std::span<const std::uint8_t, Grh::kWireSize> in);
Bth parse_bth(std::span<const std::uint8_t, Bth::kWireSize> in);
Deth parse_deth(std::span<const std::uint8_t, Deth::kWireSize> in);
Reth parse_reth(std::span<const std::uint8_t, Reth::kWireSize> in);
Aeth parse_aeth(std::span<const std::uint8_t, Aeth::kWireSize> in);

/// Parses a wire image; std::nullopt if the buffer is malformed
/// (truncated, inconsistent lengths, unknown opcode). CRC fields are
/// loaded but not validated.
std::optional<Packet> parse_packet(std::span<const std::uint8_t> wire);

}  // namespace ibsec::ib
