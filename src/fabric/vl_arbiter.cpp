#include "fabric/vl_arbiter.h"

#include "common/check.h"

namespace ibsec::fabric {

VlArbitrationConfig VlArbitrationConfig::paper_default(int num_vls) {
  VlArbitrationConfig config;
  config.high_priority.push_back({/*realtime*/ 1, 255});
  config.low_priority.push_back({/*best-effort*/ 0, 255});
  for (int vl = 2; vl < num_vls; ++vl) {
    if (vl == ib::kManagementVl) continue;
    config.low_priority.push_back({static_cast<ib::VirtualLane>(vl), 16});
  }
  return config;
}

VlArbiter::VlArbiter(VlArbitrationConfig config) {
  // Drop zero-weight entries: per spec they never transmit.
  const auto load = [](TableState& table,
                       const std::vector<VlArbitrationEntry>& entries) {
    for (const auto& entry : entries) {
      IBSEC_CHECK(entry.vl <= ib::kManagementVl)
          << "arbitration entry for VL " << static_cast<int>(entry.vl);
      if (entry.weight == 0) continue;
      table.entries.push_back(entry);
      table.vls |= 1u << entry.vl;
    }
    table.refill();
  };
  load(high_, config.high_priority);
  load(low_, config.low_priority);
}

IBSEC_HOT void VlArbiter::on_sent(ib::VirtualLane vl, std::size_t bytes) {
  if (last_table_ == nullptr || last_table_->empty()) return;
  TableState& table = *last_table_;
  if (table.entries[table.index].vl != vl) return;  // stale notification
  IBSEC_CHECK(table.remaining > 0)
      << "WRR grant charged to VL " << static_cast<int>(vl)
      << " with no remaining weight";
  const auto units =
      static_cast<std::uint32_t>((bytes + 63) / 64);  // 64-byte weight units
  if (units >= table.remaining) {
    table.advance();
  } else {
    table.remaining -= units;
  }
}

}  // namespace ibsec::fabric
