#include "workloads.h"

#include <array>

namespace ledger {

using ibsec::SimTime;
using ibsec::fabric::FilterMode;
using ibsec::workload::AttackCampaignSpec;
using ibsec::workload::KeyManagement;
using ibsec::workload::ScenarioConfig;
using ibsec::workload::WorkloadSpec;
namespace tl = ibsec::time_literals;

namespace {

struct Entry {
  const char* name;
  const char* why;
  int seeds_per_run;
};

// Why each workload exists; the README expands on these.
constexpr std::array<Entry, 4> kEntries{{
    {"mesh_dos",
     "Fig. 1 worst case on the 4x4 mesh: engine-only baseline (event queue, "
     "VL arbitration, link/VCRC, switch crossing) with no crypto or filter",
     4},
    {"fattree_mpi",
     "fat-tree k=8 all-to-all of 64 B messages plus RC streams under DPT: "
     "smallest packets, 8x the ports, many small-table filter lookups",
     3},
    {"tenant2048",
     "2048-partition tenant layout with HMAC-SHA256 on every packet and IF "
     "over ~257-entry tables: MAC-bound, largest key and filter tables",
     3},
    {"campaign_obs",
     "every defense plus scan/replay/trap-forge campaigns with trace, audit "
     "and time series on: the only workload whose obs sinks are live",
     5},
}};

std::string campaign_spec(std::uint64_t seed, std::uint64_t scale_div) {
  // Attempt counts scale with the window so the campaigns span it.
  const std::uint64_t probes = 300 / scale_div;
  const std::uint64_t traps = 50 / scale_div;
  return "seed=" + std::to_string(seed) +
         ";attack=scan:count=" + std::to_string(probes) + ",interval=50us" +
         ";attack=replay:count=" + std::to_string(probes) + ",interval=50us" +
         ";attack=trap-forge:count=" + std::to_string(traps) +
         ",interval=300us";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : kEntries) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

std::string_view workload_why(std::string_view name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return e.why;
  }
  return {};
}

int seeds_per_run(std::string_view name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return e.seeds_per_run;
  }
  return 1;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, bool quick) {
  const std::uint64_t div = quick ? 10 : 1;
  Workload w;
  w.name = std::string(name);
  ScenarioConfig& c = w.config;
  c.seed = seed;

  if (name == "mesh_dos") {
    c.fabric.link.buffer_bytes_per_vl = 2176;
    c.enable_best_effort = false;
    c.realtime_rate = 0.40;
    c.num_attackers = 4;
    c.attack_vl = ibsec::fabric::kRealtimeVl;
    c.warmup = 200 * tl::kMicrosecond;
    c.duration = 200 * tl::kMillisecond / static_cast<SimTime>(div);
    w.payload_bytes = c.fabric.mtu_bytes;
  } else if (name == "fattree_mpi") {
    c.fabric.topology = *ibsec::fabric::TopologySpec::parse("fattree:k=8");
    c.fabric.filter_mode = FilterMode::kDpt;
    c.num_partitions = 4;
    c.enable_realtime = false;
    c.best_effort_load = 0.2;
    // rc_load 0.05 keeps the RC backlog bounded; at 0.2 it grows for as
    // long as the window lasts.
    c.rc.enabled = true;
    c.enable_rc_messages = true;
    c.rc_load = 0.05;
    // 127 all-to-all steps per round; rounds x interval spans the window.
    c.workload = *WorkloadSpec::parse(
        quick ? "alltoall:bytes=64,rounds=1,interval_us=22"
              : "alltoall:bytes=64,rounds=4,interval_us=55");
    c.duration = 30 * tl::kMillisecond / static_cast<SimTime>(div);
    w.payload_bytes = 64;
    w.filter_table_size = static_cast<std::size_t>(c.num_partitions) + 1;
  } else if (name == "tenant2048") {
    c.multi_tenant = true;
    c.num_partitions = 2048;
    c.fabric.filter_mode = FilterMode::kIf;
    c.key_management = KeyManagement::kPartitionLevel;
    c.auth_enabled = true;
    c.auth_alg = ibsec::crypto::AuthAlgorithm::kHmacSha256;
    c.enable_realtime = false;
    c.best_effort_load = 0.6;
    c.duration = 80 * tl::kMillisecond / static_cast<SimTime>(div);
    w.payload_bytes = c.fabric.mtu_bytes;
    // Ring layout: every node sits in 2 * partitions / nodes partitions.
    const int nodes = c.fabric.node_count();
    w.keys_per_node = 2 * c.num_partitions / nodes;
    w.filter_table_size = static_cast<std::size_t>(w.keys_per_node) + 1;
  } else if (name == "campaign_obs") {
    c.fabric.filter_mode = FilterMode::kSif;
    c.key_management = KeyManagement::kPartitionLevel;
    c.auth_enabled = true;
    c.replay_protection = true;
    c.num_attackers = 2;
    c.attack = *AttackCampaignSpec::parse(campaign_spec(seed, div));
    c.trace.enabled = true;
    c.trace.sample_every = 1;
    c.trace.sample_seed = seed;
    c.trace.flight_recorder = true;
    c.audit.enabled = true;
    c.audit.ring = true;
    c.timeseries_dt = 10 * tl::kMicrosecond;
    c.duration = 15 * tl::kMillisecond / static_cast<SimTime>(div);
    w.payload_bytes = c.fabric.mtu_bytes;
    w.filter_table_size = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

}  // namespace ledger
