// Switch-side partition enforcement: the paper's three schemes (sec. 3.3).
//
//   DPT — Duplicate Partition Table: every switch port holds the union of
//         all P_Keys it might legally see and filters every data packet.
//         Cost: one table lookup per packet per hop.
//   IF  — Ingress Filtering: only HCA-facing (ingress) ports filter, against
//         the attached node's own partition table. One lookup per packet at
//         the first hop only.
//   SIF — Stateful Ingress Filtering: ingress filtering is normally OFF. A
//         P_Key-violation trap routes through the SM, which programs the
//         offender's Invalid_P_Key_Table and arms the filter. The Ingress
//         P_Key Violation Counter disarms it after a quiet period. Lookup
//         cost is paid only while an attack is being suppressed.
//
// The Invalid_P_Key_Table is only worth consulting while it is smaller than
// the port's partition table (paper sec. 3.3); past that point the filter
// falls back to a validity check against the partition table, equivalent to
// IF but still stateful (it disarms when the attack stops).
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/config.h"
#include "ib/keys.h"
#include "sim/simulator.h"

namespace ibsec::fabric {

class SwitchPartitionFilter {
 public:
  struct Decision {
    bool allow = true;
    int lookup_cycles = 0;  ///< extra pipeline cycles spent on filtering
  };

  /// `obs_prefix` scopes this filter's registry metrics (lookups, drops,
  /// SIF arm/disarm counts and armed time), e.g. "switch.3.filter".
  /// `switch_id` identifies the owning switch in sif_expire audit events
  /// (-1 for standalone filters in unit tests).
  SwitchPartitionFilter(const FabricConfig& config, sim::Simulator& simulator,
                        int num_ports, std::string obs_prefix = "filter",
                        int switch_id = -1);

  /// Marks `port` as HCA-facing (an ingress port for IF/SIF purposes).
  void set_ingress_port(int port, bool is_ingress);

  /// Partition table used when this port filters: for DPT the network-wide
  /// union, for IF/SIF the attached node's own membership.
  void set_port_partition_table(int port, ib::PartitionTable table);

  /// Filtering decision for a data packet with `pkey` entering on `port`.
  /// Management packets (VL15) must not be passed here — SMPs bypass
  /// partition enforcement by spec.
  Decision check(int port, ib::PKeyValue pkey);

  // --- SIF control plane (driven by the Subnet Manager) ---------------------

  /// Installs an invalid P_Key at `port` and arms its ingress filter.
  void install_invalid_pkey(int port, ib::PKeyValue pkey);

  bool sif_active(int port) const { return ports_.at(static_cast<std::size_t>(port)).sif_active; }
  std::size_t invalid_table_size(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).invalid_pkeys.size();
  }
  std::uint64_t violation_counter(int port) const {
    return ports_.at(static_cast<std::size_t>(port)).violation_counter;
  }

  // --- statistics ------------------------------------------------------------

  std::uint64_t total_lookups() const { return obs_lookups_->value(); }
  std::uint64_t total_drops() const { return obs_drops_->value(); }
  /// Aggregate bytes of table state (Table 2's memory column, measured):
  /// partition-table entries plus Invalid_P_Key_Table entries, 2 bytes each.
  std::size_t table_memory_bytes() const;

 private:
  struct PortState {
    bool is_ingress = false;
    ib::PartitionTable partition_table;
    std::vector<ib::PKeyValue> invalid_pkeys;
    bool sif_active = false;
    std::uint64_t violation_counter = 0;
    std::uint64_t counter_at_last_check = 0;
    bool timeout_pending = false;
    SimTime armed_at = 0;
  };

  void schedule_idle_check(int port);
  bool invalid_table_contains(const PortState& ps, ib::PKeyValue pkey) const;

  const FabricConfig& config_;
  sim::Simulator& sim_;
  int switch_id_ = -1;
  std::vector<PortState> ports_;
  // Registry handles under "<obs_prefix>.", the only store of these counts:
  // hit counts per enforcement scheme plus the SIF activation lifecycle
  // (armed time accumulates on disarm, so a snapshot mid-attack shows
  // completed windows only).
  obs::Counter* obs_lookups_ = nullptr;
  obs::Counter* obs_drops_ = nullptr;
  obs::Counter* obs_sif_activations_ = nullptr;
  obs::Counter* obs_sif_deactivations_ = nullptr;
  obs::TimeAccumulator* obs_sif_armed_time_ = nullptr;
};

}  // namespace ibsec::fabric
