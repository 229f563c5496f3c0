#include "fabric/fault.h"

#include <cstdio>

#include "common/spec_text.h"

namespace ibsec::fabric {

using spec_text::cut;
using spec_text::keys_distinct;
using spec_text::parse_int;
using spec_text::parse_probability;
using spec_text::parse_time_us;
using spec_text::split;

std::optional<FaultCampaign> FaultCampaign::parse(std::string_view spec) {
  FaultCampaign campaign;
  // seed=, drop= and corrupt= may appear once; the per-link and per-switch
  // entries repeat.
  std::vector<std::string_view> once;
  for (std::string_view entry : split(spec, ';')) {
    if (entry.empty()) continue;
    std::string_view key, value;
    if (!cut(entry, '=', key, value)) return std::nullopt;
    if (key == "seed") {
      once.push_back(entry);
      if (!parse_int(value, campaign.seed)) return std::nullopt;
    } else if (key == "drop") {
      once.push_back(entry);
      if (!parse_probability(value, campaign.default_profile.drop_rate)) {
        return std::nullopt;
      }
    } else if (key == "corrupt") {
      once.push_back(entry);
      if (!parse_probability(value,
                             campaign.default_profile.corruption_rate)) {
        return std::nullopt;
      }
    } else if (key == "dead-switch") {
      int sw = 0;
      if (!parse_int(value, sw) || sw < 0) return std::nullopt;
      campaign.dead_switches.push_back(sw);
    } else if (key == "link") {
      // link=<name>:<subkey>=<rate>[,<subkey>=<rate>...]
      std::string_view name, subs;
      if (!cut(value, ':', name, subs)) return std::nullopt;
      FaultProfile& profile =
          campaign.link_overrides
              .try_emplace(std::string(name), campaign.default_profile)
              .first->second;
      const std::vector<std::string_view> sub_entries = split(subs, ',');
      if (!keys_distinct(sub_entries)) return std::nullopt;
      for (std::string_view sub : sub_entries) {
        std::string_view sub_key, rate;
        if (!cut(sub, '=', sub_key, rate)) return std::nullopt;
        double* field = sub_key == "drop"      ? &profile.drop_rate
                        : sub_key == "corrupt" ? &profile.corruption_rate
                                               : nullptr;
        if (field == nullptr || !parse_probability(rate, *field)) {
          return std::nullopt;
        }
      }
    } else if (key == "flap") {
      // flap=<name>:<down>us-<up>us   (empty <up> = down forever)
      std::string_view name, window, down, up;
      if (!cut(value, ':', name, window) || !cut(window, '-', down, up)) {
        return std::nullopt;
      }
      LinkFlap flap;
      if (!parse_time_us(down, flap.down_at)) return std::nullopt;
      if (!up.empty() && !parse_time_us(up, flap.up_at)) return std::nullopt;
      campaign.link_overrides
          .try_emplace(std::string(name), campaign.default_profile)
          .first->second.flaps.push_back(flap);
    } else {
      return std::nullopt;
    }
  }
  if (!keys_distinct(once)) return std::nullopt;
  return campaign;
}

std::string FaultCampaign::describe() const {
  if (!enabled()) return "faults=off";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "faults seed=%llu drop=%.4f corrupt=%.4f overrides=%zu "
                "dead_switches=%zu",
                static_cast<unsigned long long>(seed),
                default_profile.drop_rate, default_profile.corruption_rate,
                link_overrides.size(), dead_switches.size());
  return buf;
}

}  // namespace ibsec::fabric
