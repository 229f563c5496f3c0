// One strict reader for the spec grammars (--faults, --topology,
// --workload, --attack) and for run_experiment's numeric flags.
//
// Every number must fill its whole token: no leading whitespace, no '+',
// no '-' on an unsigned field, no trailing text, nothing out of range for
// its type, and no NaN or infinity. A token that fails any of these is
// rejected, never read as 0 or wrapped, so a typo in a spec cannot
// silently name switch 0 or seed 0.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/time.h"

namespace ibsec::spec_text {

/// Every field between `sep`s, empty ones included: "a,,b" gives
/// {"a", "", "b"} and "a," gives {"a", ""}. Empty text has no fields.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Cuts `text` at its first `sep`: `head` is what precedes it, `tail` what
/// follows. Without a `sep`, `head` is all of `text`, `tail` is empty and
/// the result is false. "key=value" tokens are cut with '='.
bool cut(std::string_view text, char sep, std::string_view& head,
         std::string_view& tail);

/// Whether no two `tokens` share a key: the text before a token's first
/// '=', or "" for a token without one (so two bare tokens collide too).
bool keys_distinct(const std::vector<std::string_view>& tokens);

/// A decimal integer that fills `text` and fits Int.
template <class Int>
bool parse_int(std::string_view text, Int& out) {
  Int value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

/// A finite decimal double that fills `text`.
bool parse_double(std::string_view text, double& out);

/// parse_double, within [0, 1].
bool parse_probability(std::string_view text, double& out);

/// The longest time, in us, a spec or flag may name: its ps fit SimTime.
inline constexpr double kMaxTimeUs = 9.0e12;

/// "123us", or a bare number read as microseconds, into picoseconds.
/// Bounded to [0, kMaxTimeUs].
bool parse_time_us(std::string_view text, SimTime& out);

}  // namespace ibsec::spec_text
