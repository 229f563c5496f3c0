// Deterministic fault-injection campaigns.
//
// A FaultProfile describes how one link misbehaves: random wire drops,
// random single-byte corruption (caught by the VCRC at the next hop), and
// scheduled up/down flap windows. A FaultCampaign bundles a default profile,
// per-link overrides, and a list of dead switches under one seed so a whole
// fault scenario replays byte-identically — the property the determinism
// and conservation tests pin down.
//
// Campaigns are applied by Fabric after topology construction; links are
// addressed by their OutputPort name ("hca3.out", "sw5.out1", ...).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace ibsec::fabric {

/// One scheduled link outage: the link silently discards everything
/// dispatched in [down_at, up_at). `up_at` < 0 keeps the link down forever.
struct LinkFlap {
  SimTime down_at = 0;
  SimTime up_at = -1;
};

struct FaultProfile {
  /// Probability a dispatched packet vanishes on the wire (no delivery, no
  /// VCRC evidence at the far end — the loss RC retransmission must cover).
  double drop_rate = 0.0;
  /// Probability of a random single-byte corruption in flight; the stale
  /// VCRC is caught at the next hop.
  double corruption_rate = 0.0;
  std::vector<LinkFlap> flaps;

  bool active() const {
    return drop_rate > 0.0 || corruption_rate > 0.0 || !flaps.empty();
  }
  /// Whether a flap window covers instant `t`.
  bool down_at(SimTime t) const {
    for (const LinkFlap& f : flaps) {
      if (t >= f.down_at && (f.up_at < 0 || t < f.up_at)) return true;
    }
    return false;
  }
};

/// A whole fabric's fault plan. `default_profile` seeds every link;
/// `link_overrides` (keyed by OutputPort name) replace it wholesale for the
/// named links; `dead_switches` drop every arriving packet at those switches.
struct FaultCampaign {
  std::uint64_t seed = 0xFA017;
  FaultProfile default_profile;
  std::map<std::string, FaultProfile> link_overrides;
  std::vector<int> dead_switches;

  bool enabled() const {
    return default_profile.active() || !link_overrides.empty() ||
           !dead_switches.empty();
  }

  /// Parses the run_experiment `--faults` spec: semicolon/comma-separated
  /// `key=value` entries (global entries should come before per-link ones,
  /// since overrides snapshot the defaults at creation):
  ///   seed=42                     campaign RNG seed
  ///   drop=0.01                   default wire-drop probability
  ///   corrupt=0.005               default corruption probability
  ///   link=sw1.out3:drop=0.5      per-link override (subkeys drop/corrupt)
  ///   flap=sw1.out3:100us-300us   outage window on one link (us; -=forever)
  ///   dead-switch=5               switch 5 drops everything
  /// Returns nullopt on a malformed spec, a rate outside [0, 1] or a
  /// negative switch (common/spec_text.h reads every number).
  static std::optional<FaultCampaign> parse(std::string_view spec);

  /// One-line human-readable summary for experiment banners.
  std::string describe() const;
};

}  // namespace ibsec::fabric
