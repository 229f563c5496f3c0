// IBA VL arbitration (spec ch. 7.6.9): dual weighted-round-robin tables.
//
// Transmission order on a data link:
//   1. VL15 (subnet management) always preempts — handled by the caller.
//   2. The high-priority table: WRR among its entries.
//   3. The low-priority table: WRR, served only when no high entry can send.
//
// Each table entry is (VL, weight); a weight unit corresponds to 64 bytes
// of transmitted data, so a weight of 16 lets one MTU packet through before
// the pointer advances. The paper's testbed places realtime traffic in the
// high-priority table and best-effort in the low one — "best-effort and
// realtime traffics do not interfere with each other because separate
// virtual lanes are allocated" and realtime wins arbitration (sec. 3.1).
//
// The default configuration reproduces exactly that: {VL1/realtime} high,
// {VL0/best-effort, then every other data VL} low.
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "ib/types.h"
#include "obs/registry.h"

namespace ibsec::fabric {

struct VlArbitrationEntry {
  ib::VirtualLane vl = 0;
  std::uint8_t weight = 255;  ///< in 64-byte units; 0 entries are skipped
};

struct VlArbitrationConfig {
  std::vector<VlArbitrationEntry> high_priority;
  std::vector<VlArbitrationEntry> low_priority;

  /// The paper's arrangement: realtime high, best-effort + the rest low.
  static VlArbitrationConfig paper_default(int num_vls);
};

class VlArbiter {
 public:
  explicit VlArbiter(VlArbitrationConfig config);

  /// Picks the next VL allowed to transmit, or -1. `sendable(vl)` must
  /// return true iff that VL has a packet that fits its credits. VL15 is
  /// NOT handled here (no arbitration applies to it). Templated on the
  /// predicate so the per-dispatch call stays a direct lambda invocation —
  /// no std::function wrapper on the hot path. A table holding no VL in
  /// the `candidates` mask is not scanned; it is left as a failed scan
  /// leaves it (same index, current entry's weight refilled).
  template <class Sendable>
  IBSEC_HOT int pick(const Sendable& sendable,
                     std::uint32_t candidates = ~std::uint32_t{0}) {
    const int high = pick_from(high_, sendable, candidates);
    if (high >= 0) {
      if (obs_high_grants_ != nullptr) obs_high_grants_->inc();
      return high;
    }
    const int low = pick_from(low_, sendable, candidates);
    if (low >= 0 && obs_low_grants_ != nullptr) obs_low_grants_->inc();
    return low;
  }

  /// pick() over a bitmask: bit v of `sendable` is set iff VL v can send.
  IBSEC_HOT int pick_mask(std::uint32_t sendable) {
    return pick(
        [sendable](ib::VirtualLane vl) { return (sendable >> vl & 1u) != 0; },
        sendable);
  }

  /// Informs the arbiter that `bytes` were transmitted on `vl`, consuming
  /// weight and advancing the WRR pointer when the entry is exhausted.
  IBSEC_HOT void on_sent(ib::VirtualLane vl, std::size_t bytes);

  /// True iff each table's current entry holds its full weight, as a
  /// failed pick leaves it; pick_mask(0) changes nothing then.
  bool at_rest() const { return high_.full() && low_.full(); }

  /// Attaches grant counters (owned by the registry): each successful pick
  /// increments the counter of the table it was served from — the per-link
  /// view of how transmit slots split between priority classes.
  void set_obs(obs::Counter* high_grants, obs::Counter* low_grants) {
    obs_high_grants_ = high_grants;
    obs_low_grants_ = low_grants;
  }

 private:
  struct TableState {
    std::vector<VlArbitrationEntry> entries;
    std::size_t index = 0;
    std::uint32_t remaining = 0;  // 64-byte units left for current entry
    std::uint32_t vls = 0;        // bit v set iff some entry names VL v

    bool empty() const { return entries.empty(); }
    bool full() const {
      return entries.empty() || remaining == entries[index].weight;
    }
    void refill() {
      if (!entries.empty()) remaining = entries[index].weight;
    }
    void advance() {  // callers hold a non-empty table
      if (++index == entries.size()) index = 0;
      refill();
    }
  };

  /// Scans a table WRR-style; returns the chosen VL or -1.
  template <class Sendable>
  IBSEC_HOT int pick_from(TableState& table, const Sendable& sendable,
                          std::uint32_t candidates) {
    // No candidate in this table (or no entry): skip straight to where one
    // full failed loop below would end, back at the start, weight refilled.
    if ((table.vls & candidates) == 0) {
      table.refill();
      return -1;
    }
    IBSEC_DCHECK(table.index < table.entries.size());
    IBSEC_DCHECK(table.remaining <= table.entries[table.index].weight);
    // Start at the current WRR position; if its weight is spent or it cannot
    // send, walk forward. One full loop means nothing is sendable.
    for (std::size_t scanned = 0; scanned < table.entries.size(); ++scanned) {
      const VlArbitrationEntry& entry = table.entries[table.index];
      if (table.remaining > 0 && sendable(entry.vl)) {
        last_table_ = &table;
        return entry.vl;
      }
      table.advance();
    }
    return -1;
  }

  TableState high_;
  TableState low_;
  // Which table the last pick came from, for weight accounting.
  TableState* last_table_ = nullptr;
  obs::Counter* obs_high_grants_ = nullptr;
  obs::Counter* obs_low_grants_ = nullptr;
};

}  // namespace ibsec::fabric
