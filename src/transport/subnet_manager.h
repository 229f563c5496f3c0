// The Subnet Manager (SM): partition creation, switch enforcement
// configuration, M_Key assignment, partition-level secret distribution, and
// the trap handling that arms Stateful Ingress Filtering.
//
// SIF control loop (paper sec. 3.3): a victim HCA receives a packet with an
// invalid P_Key and sends a trap MAD (VL15) to the SM. The SM maps the
// offender's SLID to its ingress switch and — after the SM->switch
// programming delay — installs the P_Key in that switch's
// Invalid_P_Key_Table, arming the port's filter. The switch disarms itself
// when its Ingress P_Key Violation Counter goes quiet.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "transport/channel_adapter.h"

namespace ibsec::transport {

class SubnetManager {
 public:
  /// `cas` must outlive the SM and hold one CA per fabric node. The SM runs
  /// on `sm_node` and uses that node's CA for MAD traffic.
  SubnetManager(fabric::Fabric& fabric, std::vector<ChannelAdapter*> cas,
                int sm_node, std::uint64_t seed);

  int sm_node() const { return sm_node_; }

  // --- partitioning -----------------------------------------------------------
  /// Creates a partition: installs `pkey` into each member CA's partition
  /// table and records membership.
  void create_partition(ib::PKeyValue pkey, const std::vector<int>& members);
  const std::vector<int>* members_of(ib::PKeyValue pkey) const;
  std::vector<ib::PKeyValue> all_pkeys() const;

  /// Programs switch partition tables for the configured FilterMode:
  /// DPT gets the network-wide union at every port; IF/SIF get each node's
  /// own membership at its ingress port. Call after creating partitions.
  void configure_switch_enforcement();

  // --- keys -------------------------------------------------------------------
  /// Gives every CA a distinct M_Key (and remembers them — the SM is the
  /// legitimate holder).
  void assign_m_keys();
  ib::MKeyValue m_key_of(int node) const { return m_keys_.at(node); }

  /// Partition-level key management (paper sec. 4.2): generates a 16-byte
  /// secret for the partition and sends it to every member CA, RSA-wrapped
  /// with that CA's public key, via kKeyDistribution MADs. Calling it again
  /// for the same partition *rotates* the secret: receivers keep the old
  /// one for a one-epoch grace window (PartitionKeyManager).
  void distribute_partition_secret(ib::PKeyValue pkey,
                                   crypto::AuthAlgorithm alg);
  /// Explicit-intent alias for re-keying a live partition.
  void rotate_partition_secret(ib::PKeyValue pkey, crypto::AuthAlgorithm alg) {
    distribute_partition_secret(pkey, alg);
  }

  // --- trap validation --------------------------------------------------------
  /// Plausibility check on P_Key-violation traps (on by default): a trap
  /// whose reported P_Key is one the claimed offender *legitimately holds*
  /// is a forgery (or would blackhole legitimate traffic, which is the same
  /// thing from the SM's perspective) and is rejected instead of arming
  /// SIF. This closes the trap-forge campaign's poisoning primitive: claim
  /// victim V "offended" with V's own partition key, and an unvalidated SM
  /// installs that key as invalid at V's ingress port.
  void set_trap_validation(bool on) { trap_validation_ = on; }
  bool trap_validation() const { return trap_validation_; }

  // --- statistics ---------------------------------------------------------------
  std::uint64_t traps_received() const { return obs_traps_->value(); }
  std::uint64_t sif_installs() const { return obs_sif_installs_->value(); }
  /// Traps rejected by validation (forged or self-poisoning).
  std::uint64_t traps_rejected() const {
    return obs::value_or_zero(obs_traps_rejected_);
  }
  /// Poisoning traps that validation was NOT armed against and that went on
  /// to arm SIF against a legitimate key — the trap-forge success metric.
  std::uint64_t poisoned_installs() const {
    return obs::value_or_zero(obs_poisoned_);
  }

 private:
  bool handle_mad(const Mad& mad);
  /// True when `pkey` matches a partition the node belongs to (or the
  /// default P_Key) — i.e. installing it as invalid would blackhole the
  /// node's own legitimate traffic.
  bool pkey_legal_for(int node, ib::PKeyValue pkey) const;
  void arm_sif(int offender_node, ib::PKeyValue pkey);

  fabric::Fabric& fabric_;
  std::vector<ChannelAdapter*> cas_;
  int sm_node_;
  crypto::CtrDrbg drbg_;
  std::map<ib::PKeyValue, std::vector<int>> partitions_;
  std::map<int, ib::MKeyValue> m_keys_;
  bool trap_validation_ = true;
  // "sm.*" registry handles, the only store of the SM's counts;
  // program_delay accumulates the trap-to-armed SMP latency the SIF
  // reaction time depends on.
  obs::Counter* obs_traps_ = nullptr;
  obs::Counter* obs_sif_installs_ = nullptr;
  obs::Counter* obs_partitions_ = nullptr;
  obs::Counter* obs_secrets_ = nullptr;
  obs::TimeAccumulator* obs_program_delay_ = nullptr;
  // Lazily resolved: only runs where the validation predicate actually
  // fires grow "sm.traps_rejected" / "sm.sif_poisoned_installs" snapshot
  // entries (no existing scenario triggers it, keeping goldens intact).
  obs::Counter* obs_traps_rejected_ = nullptr;
  obs::Counter* obs_poisoned_ = nullptr;
};

}  // namespace ibsec::transport
