#include "transport/subnet_manager.h"

namespace ibsec::transport {

SubnetManager::SubnetManager(fabric::Fabric& fabric,
                             std::vector<ChannelAdapter*> cas, int sm_node,
                             std::uint64_t seed)
    : fabric_(fabric),
      cas_(std::move(cas)),
      sm_node_(sm_node),
      drbg_(seed ^ 0x5EC5EC5EC5ULL) {
  for (ChannelAdapter* ca : cas_) {
    ca->set_sm_node(sm_node_);
  }
  cas_.at(static_cast<std::size_t>(sm_node_))
      ->add_mad_handler([this](const Mad& mad) { return handle_mad(mad); });
  auto& reg = fabric_.simulator().obs();
  obs_traps_ = &reg.counter("sm.traps_received");
  obs_sif_installs_ = &reg.counter("sm.sif_installs");
  obs_partitions_ = &reg.counter("sm.partitions_created");
  obs_secrets_ = &reg.counter("sm.secrets_distributed");
  obs_program_delay_ = &reg.time_accumulator("sm.sif.program_delay");
}

void SubnetManager::create_partition(ib::PKeyValue pkey,
                                     const std::vector<int>& members) {
  partitions_[pkey] = members;
  obs_partitions_->inc();
  for (int node : members) {
    cas_.at(static_cast<std::size_t>(node))->partition_table().add(pkey);
  }
}

const std::vector<int>* SubnetManager::members_of(ib::PKeyValue pkey) const {
  const auto it = partitions_.find(pkey);
  return it == partitions_.end() ? nullptr : &it->second;
}

std::vector<ib::PKeyValue> SubnetManager::all_pkeys() const {
  std::vector<ib::PKeyValue> keys;
  keys.push_back(ib::kDefaultPKey);
  for (const auto& [pkey, members] : partitions_) keys.push_back(pkey);
  return keys;
}

void SubnetManager::configure_switch_enforcement() {
  const fabric::FilterMode mode = fabric_.config().filter_mode;
  const int n = fabric_.node_count();

  if (mode == fabric::FilterMode::kDpt) {
    // Every port of every switch carries the union table (n*p entries per
    // switch — Table 2's memory blow-up). Iterate the real switch count:
    // off-mesh topologies have more switches than nodes.
    ib::PartitionTable union_table;
    for (ib::PKeyValue pkey : all_pkeys()) union_table.add(pkey);
    for (int s = 0; s < fabric_.switch_count(); ++s) {
      fabric::Switch& sw = fabric_.switch_at(s);
      for (int p = 0; p < sw.num_ports(); ++p) {
        sw.filter().set_port_partition_table(p, union_table);
      }
    }
    return;
  }

  if (mode == fabric::FilterMode::kIf || mode == fabric::FilterMode::kSif) {
    // Each ingress port gets only the attached node's own memberships —
    // "a necessary & sufficient partition table" (paper sec. 3.3).
    for (int node = 0; node < n; ++node) {
      ib::PartitionTable table;
      table.add(ib::kDefaultPKey);
      for (const auto& [pkey, members] : partitions_) {
        for (int member : members) {
          if (member == node) table.add(pkey);
        }
      }
      fabric_.ingress_switch_of(node).filter().set_port_partition_table(
          fabric_.ingress_port_of(node), std::move(table));
    }
  }
}

void SubnetManager::assign_m_keys() {
  for (ChannelAdapter* ca : cas_) {
    const auto m_key = drbg_.next_u64();
    ca->node_keys().m_key = m_key;
    ca->node_keys().b_key = drbg_.next_u64();
    m_keys_[ca->node()] = m_key;
  }
}

void SubnetManager::distribute_partition_secret(ib::PKeyValue pkey,
                                                crypto::AuthAlgorithm alg) {
  const auto it = partitions_.find(pkey);
  if (it == partitions_.end()) return;
  const std::vector<std::uint8_t> secret = drbg_.generate(16);
  obs_secrets_->inc();
  ChannelAdapter& sm_ca = *cas_.at(static_cast<std::size_t>(sm_node_));
  for (int member : it->second) {
    const auto wrapped = sm_ca.wrap_for(member, secret);
    if (!wrapped) continue;
    Mad mad;
    mad.type = MadType::kKeyDistribution;
    mad.src_node = static_cast<std::uint16_t>(sm_node_);
    mad.pkey = pkey;
    mad.auth_alg = alg;
    mad.blob = *wrapped;
    if (member == sm_node_) {
      // Local delivery: the SM's own CA runs its handler chain directly
      // (no self-addressed fabric packet).
      sm_ca.deliver_local_mad(mad);
    } else {
      sm_ca.send_mad(member, mad);
    }
  }
}

bool SubnetManager::pkey_legal_for(int node, ib::PKeyValue pkey) const {
  if (ib::pkeys_match(pkey, ib::kDefaultPKey)) return true;
  for (const auto& [part_pkey, members] : partitions_) {
    if (!ib::pkeys_match(pkey, part_pkey)) continue;
    for (int member : members) {
      if (member == node) return true;
    }
  }
  return false;
}

bool SubnetManager::handle_mad(const Mad& mad) {
  if (mad.type != MadType::kTrapPKeyViolation) return false;
  obs_traps_->inc();
  const int offender = fabric_.node_of_lid(static_cast<ib::Lid>(mad.value));
  if (offender < 0 || offender >= fabric_.node_count()) return true;
  // A trap reporting a P_Key the claimed offender legitimately holds is
  // contradictory: genuine DoS floods carry keys *outside* the sender's
  // membership, while "filtering" a node's own key is exactly the
  // blackholing primitive a forged trap wants. Reject (validation on) or
  // count the poisoning (validation off — the ablation the trap-forge
  // campaign measures).
  // Audits the validation verdict: actor = the reporting CA (a forged
  // trap's sender), victim = the claimed offender the trap asks to
  // blackhole, a0 = the reported P_Key.
  const auto audit_trap = [&](obs::Decision kind) {
    sim::Simulator& sim = fabric_.simulator();
    if (!sim.audit().enabled()) return;
    obs::AuditEvent ev;
    ev.at = sim.now();
    ev.node = sm_node_;
    ev.actor_lid =
        static_cast<std::int32_t>(fabric_.lid_of_node(mad.src_node));
    ev.actor_qp = static_cast<std::int32_t>(mad.src_qp);
    ev.victim_lid = static_cast<std::int32_t>(mad.value);
    ev.a0 = static_cast<std::int64_t>(mad.pkey);
    sim.audit().emit(kind, ev);
  };
  if (pkey_legal_for(offender, mad.pkey)) {
    auto& reg = fabric_.simulator().obs();
    if (trap_validation_) {
      if (obs_traps_rejected_ == nullptr) {
        obs_traps_rejected_ = &reg.counter("sm.traps_rejected");
      }
      obs_traps_rejected_->inc();
      audit_trap(obs::Decision::kSmTrapRejected);
      return true;
    }
    if (fabric_.config().filter_mode == fabric::FilterMode::kSif) {
      // Only an actual SIF install poisons a port; other filter modes
      // ignore traps entirely.
      if (obs_poisoned_ == nullptr) {
        obs_poisoned_ = &reg.counter("sm.sif_poisoned_installs");
      }
      obs_poisoned_->inc();
    }
  }
  audit_trap(obs::Decision::kSmTrapAccepted);
  arm_sif(offender, mad.pkey);
  return true;
}

void SubnetManager::arm_sif(int offender_node, ib::PKeyValue pkey) {
  if (fabric_.config().filter_mode != fabric::FilterMode::kSif) return;
  fabric::Switch& sw = fabric_.ingress_switch_of(offender_node);
  const int port = fabric_.ingress_port_of(offender_node);
  obs_sif_installs_->inc();
  obs_program_delay_->add(fabric_.config().sm_program_delay);
  {
    sim::Simulator& sim = fabric_.simulator();
    if (sim.audit().enabled()) {
      obs::AuditEvent ev;
      ev.at = sim.now();
      ev.node = sw.id();
      // The filtered source is the "victim" of the install — which is the
      // point when the trap that armed it was forged.
      ev.victim_lid =
          static_cast<std::int32_t>(fabric_.lid_of_node(offender_node));
      ev.port = port;
      ev.a0 = static_cast<std::int64_t>(pkey);
      sim.audit().emit(obs::Decision::kSifInstall, ev);
    }
  }
  // The SM -> switch programming SMP takes a configurable delay; during this
  // window attack traffic still crosses the fabric (the effect Figure 5
  // shows at low loads).
  fabric_.simulator().after(fabric_.config().sm_program_delay,
                            [&sw, port, pkey] {
                              sw.filter().install_invalid_pkey(port, pkey);
                            });
}

}  // namespace ibsec::transport
