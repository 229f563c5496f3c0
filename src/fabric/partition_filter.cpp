#include "fabric/partition_filter.h"

#include <algorithm>

namespace ibsec::fabric {

SwitchPartitionFilter::SwitchPartitionFilter(const FabricConfig& config,
                                             sim::Simulator& simulator,
                                             int num_ports,
                                             std::string obs_prefix,
                                             int switch_id)
    : config_(config), sim_(simulator), switch_id_(switch_id),
      ports_(static_cast<std::size_t>(num_ports)) {
  auto& reg = simulator.obs();
  obs_lookups_ = &reg.counter(obs_prefix + ".lookups");
  obs_drops_ = &reg.counter(obs_prefix + ".drops");
  obs_sif_activations_ = &reg.counter(obs_prefix + ".sif.activations");
  obs_sif_deactivations_ = &reg.counter(obs_prefix + ".sif.deactivations");
  obs_sif_armed_time_ = &reg.time_accumulator(obs_prefix + ".sif.armed_time");
}

void SwitchPartitionFilter::set_ingress_port(int port, bool is_ingress) {
  ports_.at(static_cast<std::size_t>(port)).is_ingress = is_ingress;
}

void SwitchPartitionFilter::set_port_partition_table(
    int port, ib::PartitionTable table) {
  ports_.at(static_cast<std::size_t>(port)).partition_table = std::move(table);
}

bool SwitchPartitionFilter::invalid_table_contains(
    const PortState& ps, ib::PKeyValue pkey) const {
  return std::find(ps.invalid_pkeys.begin(), ps.invalid_pkeys.end(), pkey) !=
         ps.invalid_pkeys.end();
}

SwitchPartitionFilter::Decision SwitchPartitionFilter::check(
    int port, ib::PKeyValue pkey) {
  PortState& ps = ports_.at(static_cast<std::size_t>(port));

  switch (config_.filter_mode) {
    case FilterMode::kNone:
      return {true, 0};

    case FilterMode::kDpt: {
      // Every port pays a lookup for every packet.
      obs_lookups_->inc();
      const bool ok = ps.partition_table.contains(pkey);
      if (!ok) obs_drops_->inc();
      return {ok, config_.filter_lookup_cycles};
    }

    case FilterMode::kIf: {
      if (!ps.is_ingress) return {true, 0};
      obs_lookups_->inc();
      const bool ok = ps.partition_table.contains(pkey);
      if (!ok) obs_drops_->inc();
      return {ok, config_.filter_lookup_cycles};
    }

    case FilterMode::kSif: {
      if (!ps.is_ingress || !ps.sif_active) return {true, 0};
      obs_lookups_->inc();
      bool drop;
      if (ps.invalid_pkeys.size() < ps.partition_table.size() ||
          ps.partition_table.size() == 0) {
        drop = invalid_table_contains(ps, pkey);
      } else {
        // Invalid table outgrew the partition table: cheaper to check
        // validity directly (paper sec. 3.3).
        drop = !ps.partition_table.contains(pkey);
      }
      if (drop) {
        obs_drops_->inc();
        ++ps.violation_counter;
      }
      return {!drop, config_.filter_lookup_cycles};
    }
  }
  return {true, 0};
}

void SwitchPartitionFilter::install_invalid_pkey(int port,
                                                 ib::PKeyValue pkey) {
  PortState& ps = ports_.at(static_cast<std::size_t>(port));
  if (!invalid_table_contains(ps, pkey)) {
    ps.invalid_pkeys.push_back(pkey);
  }
  if (!ps.sif_active) {
    ps.sif_active = true;
    ps.armed_at = sim_.now();
    obs_sif_activations_->inc();
    ps.counter_at_last_check = ps.violation_counter;
    schedule_idle_check(port);
  }
}

void SwitchPartitionFilter::schedule_idle_check(int port) {
  PortState& ps = ports_.at(static_cast<std::size_t>(port));
  if (ps.timeout_pending) return;
  ps.timeout_pending = true;
  sim_.after(config_.sif_idle_timeout, [this, port] {
    PortState& state = ports_.at(static_cast<std::size_t>(port));
    state.timeout_pending = false;
    if (!state.sif_active) return;
    if (state.violation_counter == state.counter_at_last_check) {
      // No violations during the window: the attack ended. Disarm and
      // forget the invalid keys so memory returns to baseline.
      if (sim_.audit().enabled()) {
        obs::AuditEvent ev;
        ev.at = sim_.now();
        ev.node = switch_id_;
        ev.port = port;
        // a0 = violations absorbed over the armed window: the incident's
        // magnitude, paired with the matching sif_install by (node, port).
        ev.a0 = static_cast<std::int64_t>(state.violation_counter);
        sim_.audit().emit(obs::Decision::kSifExpire, ev);
      }
      state.sif_active = false;
      state.invalid_pkeys.clear();
      obs_sif_deactivations_->inc();
      obs_sif_armed_time_->add(sim_.now() - state.armed_at);
    } else {
      state.counter_at_last_check = state.violation_counter;
      schedule_idle_check(port);
    }
  });
}

std::size_t SwitchPartitionFilter::table_memory_bytes() const {
  std::size_t entries = 0;
  for (const PortState& ps : ports_) {
    if (config_.filter_mode == FilterMode::kDpt ||
        ((config_.filter_mode == FilterMode::kIf ||
          config_.filter_mode == FilterMode::kSif) &&
         ps.is_ingress)) {
      entries += ps.partition_table.size();
    }
    entries += ps.invalid_pkeys.size();
  }
  return entries * sizeof(ib::PKeyValue);
}

}  // namespace ibsec::fabric
