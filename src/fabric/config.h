// Fabric-wide configuration. Defaults reproduce the paper's Table 1 testbed:
// 2.5 Gbps 1x links, 5-port switches, 16 VLs per physical link, 1024-byte
// MTU, 16-node mesh.
#pragma once

#include <cstdint>
#include <optional>

#include "common/time.h"
#include "fabric/fault.h"
#include "fabric/topology_spec.h"
#include "fabric/vl_arbiter.h"
#include "ib/types.h"

namespace ibsec::fabric {

/// Which partition-enforcement scheme the switches run (paper sec. 3.3).
enum class FilterMode : std::uint8_t {
  kNone = 0,  ///< HCA-only enforcement (baseline IBA): attack traffic crosses the network
  kDpt = 1,   ///< Duplicate Partition Table: every switch port filters every packet
  kIf = 2,    ///< Ingress Filtering: always-on filtering at HCA-facing ports
  kSif = 3,   ///< Stateful Ingress Filtering: trap-activated ingress filtering
};

const char* to_string(FilterMode mode);

struct LinkParams {
  std::int64_t bandwidth_bps = 2'500'000'000;  ///< IBA 1x signalling rate
  SimTime propagation = 10 * time_literals::kNanosecond;
  /// Receive buffer per VL at the far end; the credit pool the sender draws
  /// from. Four MTU packets deep by default.
  std::size_t buffer_bytes_per_vl = 4352;
  int num_vls = 16;
  /// VL arbitration tables; nullopt selects the paper's arrangement
  /// (realtime high-priority, everything else low) via
  /// VlArbitrationConfig::paper_default.
  std::optional<VlArbitrationConfig> arbitration;

  /// Fault injection applied to every link built with these params (per-link
  /// overrides come from FabricConfig::fault_campaign). Drops vanish on the
  /// wire; corruption leaves a stale VCRC for the next hop to catch.
  FaultProfile faults;
  /// Seed for the per-port fault RNG streams (each port decorrelates by
  /// hashing its name into this).
  std::uint64_t fault_seed = 0xFA017;
};

struct FabricConfig {
  LinkParams link;

  /// Which topology the fabric builds (see topology_builder.h). Defaults to
  /// the paper's mesh; fat-tree shape parameters live inside the
  /// spec, mesh dimensions in mesh_width/mesh_height below (kept as direct
  /// fields for compatibility with everything that sizes the mesh).
  TopologySpec topology;

  int mesh_width = 4;
  int mesh_height = 4;

  std::size_t mtu_bytes = 1024;

  /// Switch core clock; the paper's CACTI argument prices one partition
  /// table lookup at one cycle. 312.5 MHz gives a 3.2 ns cycle.
  std::int64_t switch_clock_hz = 312'500'000;
  /// Fixed pipeline crossing latency per switch, in cycles.
  int switch_pipeline_cycles = 64;
  /// Extra cycles per partition-table lookup (Table 2's f(p)).
  int filter_lookup_cycles = 1;

  FilterMode filter_mode = FilterMode::kNone;

  /// Deterministic fault plan: the default profile and seed are copied into
  /// `link` before the fabric is built; per-link overrides and dead switches
  /// are applied to the constructed topology.
  FaultCampaign fault_campaign;

  /// Ingress (HCA-facing) port admission cap as a fraction of link
  /// bandwidth; 0 disables. The defence against valid-P_Key floods that
  /// partition filtering cannot touch (sec. 7). Management VL15 is exempt.
  double ingress_rate_limit_fraction = 0.0;
  /// Token-bucket burst for the ingress limiter, in bytes.
  std::size_t ingress_rate_limit_burst = 8192;

  /// SIF: the switch disables ingress filtering when the Ingress P_Key
  /// Violation Counter has not advanced for this long.
  SimTime sif_idle_timeout = 200 * time_literals::kMicrosecond;
  /// SIF: delay between the SM receiving a trap and the ingress switch's
  /// Invalid_P_Key_Table being programmed (models the SM->switch SMP).
  SimTime sm_program_delay = 5 * time_literals::kMicrosecond;

  SimTime switch_cycle() const {
    return time_literals::kSecond / switch_clock_hz;
  }

  int node_count() const {
    return topology.node_count(mesh_width, mesh_height);
  }
};

/// VL assignment used throughout the fabric (paper: separate VLs isolate
/// realtime from best-effort; VL15 is the unflow-controlled management lane).
constexpr ib::VirtualLane kBestEffortVl = 0;
constexpr ib::VirtualLane kRealtimeVl = 1;

}  // namespace ibsec::fabric
