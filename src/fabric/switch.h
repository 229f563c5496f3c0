// A 5-port, store-and-forward InfiniBand switch.
//
// Pipeline per packet: receive fully into the per-VL input buffer -> fixed
// crossing latency (switch_pipeline_cycles) -> optional partition-filter
// lookup cycles -> linear forwarding table (DLID -> output port) -> per-VL
// output queue with strict-priority VL arbitration and credit-based flow
// control. Input-buffer bytes are held until the packet starts leaving on
// the output link, which is what propagates back-pressure.
//
// The VCRC is verified on entry, once per packet: later switches trust
// PacketMeta::vcrc_verified unless a link corrupted the packet since. No
// switch rewrites a covered field, so none recomputes the VCRC. The ICRC/AT
// is untouched — switches cannot and need not validate it, which is what
// keeps the paper's MAC end-to-end.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/link.h"
#include "fabric/packet_pool.h"
#include "fabric/partition_filter.h"
#include "fabric/rate_limiter.h"

namespace ibsec::fabric {

class Switch final : public Device {
 public:
  /// `num_lids` sizes the linear forwarding table (LIDs 0..num_lids-1), as
  /// IBA's LinearFDBTop bounds it to the highest assigned LID.
  Switch(sim::Simulator& simulator, const FabricConfig& config, int id,
         int num_ports, std::size_t num_lids);

  // --- wiring (topology builder) --------------------------------------------
  OutputPort& out(int port) { return *outputs_.at(static_cast<std::size_t>(port)); }
  void set_upstream(int port, OutputPort* upstream);
  /// DLID -> output port; `dlid` must be below the table size. Unknown DLIDs,
  /// including any past the table, drop as no-route.
  void set_route(ib::Lid dlid, int port);
  void set_ingress_port(int port, bool is_ingress);

  /// FaultCampaign dead-switch state: every arriving packet is discarded
  /// (counted under "switch.<id>.drop.dead"); buffers are still released so
  /// neighbours keep their credits.
  void set_dead(bool dead) { dead_ = dead; }
  bool dead() const { return dead_; }

  SwitchPartitionFilter& filter() { return filter_; }
  const SwitchPartitionFilter& filter() const { return filter_; }

  // --- Device ----------------------------------------------------------------
  void packet_arrived(ib::Packet&& pkt, int in_port) override;
  std::string name() const override;

  int id() const { return id_; }
  int num_ports() const { return static_cast<int>(outputs_.size()); }

  // --- statistics -------------------------------------------------------------
  /// Registry handles under "switch.<id>." — the drop-cause taxonomy the
  /// packet-conservation invariant sums over, and the only store of these
  /// counts.
  struct ObsHandles {
    obs::Counter* forwarded = nullptr;
    obs::Counter* drop_pkey = nullptr;
    obs::Counter* drop_no_route = nullptr;
    obs::Counter* drop_vcrc = nullptr;
    obs::Counter* drop_rate_limited = nullptr;
    obs::Counter* drop_dead = nullptr;
  };
  const ObsHandles& obs() const { return obs_; }

 private:
  sim::Simulator& sim_;
  const FabricConfig& config_;
  int id_;
  std::vector<std::unique_ptr<OutputPort>> outputs_;
  std::vector<InputPort> inputs_;
  /// Recycles the slots that park packets during the crossing delay.
  PacketPool pool_;
  std::vector<int> routes_;  // indexed by DLID; -1 or past the end = no route
  SwitchPartitionFilter filter_;
  // Per-port ingress admission limiter; only HCA-facing ports get one, and
  // only when config_.ingress_rate_limit_fraction > 0.
  std::vector<std::unique_ptr<TokenBucket>> ingress_limiters_;
  bool dead_ = false;
  ObsHandles obs_;
};

}  // namespace ibsec::fabric
