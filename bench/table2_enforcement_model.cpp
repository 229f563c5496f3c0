// Table 2 — Partition-enforcement overhead: DPT vs IF vs SIF.
//
// Two views:
//  1. The paper's analytic formulas (memory entries and lookups/packet as
//     functions of n, s, p, Pr(n), Avg(p)), evaluated for the simulated
//     testbed and for a larger deployment.
//  2. Measured values from the packet-level simulator: actual table memory
//     programmed into switches and actual lookup counts per forwarded
//     packet under a live attack.
#include <cstdio>

#include "analytic/enforcement_model.h"
#include "bench/bench_util.h"
#include "workload/experiment.h"

using namespace ibsec;
using fabric::FilterMode;

namespace {

void print_analytic(const char* title, const analytic::EnforcementParams& p) {
  std::printf("%s (n=%lld nodes, s=%lld switches, p=%lld partitions/node, "
              "Pr=%.2f, Avg=%.0f)\n",
              title, static_cast<long long>(p.nodes),
              static_cast<long long>(p.switches),
              static_cast<long long>(p.partitions_per_node),
              p.attack_probability, p.avg_invalid_entries);
  std::printf("  %-6s %22s %22s %20s\n", "Scheme", "Mem/switch (entries)",
              "Mem all switches", "Lookups/packet");
  for (const auto& row : analytic::enforcement_table(p)) {
    std::printf("  %-6s %22.2f %22.2f %20.4f\n", row.scheme.c_str(),
                row.memory_per_switch_entries,
                row.memory_all_switches_entries, row.lookups_per_packet);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Table 2: partition enforcement overhead ===\n\n");

  // Analytic view — the simulated testbed.
  analytic::EnforcementParams testbed;
  testbed.nodes = 16;
  testbed.switches = 16;
  testbed.partitions_per_node = 2;  // default + one workload partition
  testbed.attack_probability = 0.01;
  testbed.avg_invalid_entries = 2;
  print_analytic("Analytic, simulated testbed", testbed);

  // Analytic view — a larger deployment, linear f(i).
  analytic::EnforcementParams big;
  big.nodes = 1024;
  big.switches = 128;
  big.partitions_per_node = 8;
  big.attack_probability = 0.01;
  big.avg_invalid_entries = 8;
  print_analytic("Analytic, 1024-node cluster", big);

  // CACTI view: f(i) = 1 cycle for SRAM-resident tables (paper sec. 6).
  analytic::EnforcementParams cacti = testbed;
  cacti.lookup_cost = [](double) { return 1.0; };
  print_analytic("Analytic, CACTI unit-cost lookups", cacti);

  // Measured view from the simulator, under a sustained 4-attacker flood.
  std::printf("Measured in the packet-level simulator (4 attackers, "
              "sustained attack, best-effort load 50%%):\n");
  std::printf("  %-14s %16s %18s %14s %16s\n", "Scheme", "Table mem (B)",
              "Lookups/fwd pkt", "Drops@switch", "Leaked to HCAs");
  std::vector<workload::ScenarioConfig> configs;
  for (FilterMode mode : {FilterMode::kNone, FilterMode::kDpt, FilterMode::kIf,
                          FilterMode::kSif}) {
    workload::ScenarioConfig cfg;
    cfg.seed = 202;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.5;
    cfg.num_attackers = 4;
    cfg.fabric.filter_mode = mode;
    cfg.attack_vl = fabric::kBestEffortVl;
    configs.push_back(cfg);
  }
  const auto results = workload::run_sweep(configs);
  const char* names[] = {"No Filtering", "DPT", "IF", "SIF"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double per_pkt =
        r.forwarded ? static_cast<double>(r.switch_filter_lookups) /
                          static_cast<double>(r.forwarded + r.switch_filter_drops)
                    : 0.0;
    std::printf("  %-14s %16zu %18.4f %14llu %16llu\n", names[i],
                r.switch_table_memory, per_pkt,
                static_cast<unsigned long long>(r.switch_filter_drops),
                static_cast<unsigned long long>(r.hca_pkey_violations));
  }

  // Shape check: DPT memory dominates; SIF lookups fall between None and IF.
  const bool reproduced =
      results[1].switch_table_memory > 5 * results[2].switch_table_memory &&
      results[3].switch_filter_lookups < results[2].switch_filter_lookups &&
      results[1].switch_filter_lookups > results[2].switch_filter_lookups;
  std::printf("\nPaper shape: DPT memory >> IF; lookup counts DPT > IF > SIF: %s\n",
              reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return reproduced ? 0 : 1;
}
