#include "common/spec_text.h"

#include <cmath>

namespace ibsec::spec_text {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  if (text.empty()) return parts;
  std::string_view part;
  while (cut(text, sep, part, text)) parts.push_back(part);
  parts.push_back(part);
  return parts;
}

bool cut(std::string_view text, char sep, std::string_view& head,
         std::string_view& tail) {
  const std::size_t at = text.find(sep);
  if (at == std::string_view::npos) {
    head = text;
    tail = {};
    return false;
  }
  head = text.substr(0, at);
  tail = text.substr(at + 1);
  return true;
}

bool keys_distinct(const std::vector<std::string_view>& tokens) {
  const auto key_of = [](std::string_view token) {
    std::string_view key, value;
    return cut(token, '=', key, value) ? key : std::string_view();
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      if (key_of(tokens[i]) == key_of(tokens[j])) return false;
    }
  }
  return true;
}

bool parse_double(std::string_view text, double& out) {
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

bool parse_probability(std::string_view text, double& out) {
  double p = 0;
  if (!parse_double(text, p) || p < 0 || p > 1) return false;
  out = p;
  return true;
}

bool parse_time_us(std::string_view text, SimTime& out) {
  if (text.ends_with("us")) text.remove_suffix(2);
  double us = 0;
  if (!parse_double(text, us) || us < 0 || us > kMaxTimeUs) return false;
  out = static_cast<SimTime>(us * 1e6);  // us -> ps
  return true;
}

}  // namespace ibsec::spec_text
