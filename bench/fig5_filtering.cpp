// Figure 5 — Performance comparison among No Filtering, DPT, IF, and SIF.
//
// Paper setup (sec. 6): four attackers with a 1% probability of being
// active in any attack window; best-effort input loads of 40-70%; the bars
// show average network + queuing delay of non-attacking traffic, with the
// partition-enforcement scheme as the grouping variable.
//
// Expected shape: No Filtering is the worst (attack bursts cross the whole
// fabric); the three filters are close to each other; DPT pays a lookup at
// every hop, IF only at ingress; SIF approximates IF, slightly worse at low
// loads (the trap->SM->switch arming window leaks attack traffic, raising
// variance) and slightly better where it matters because its lookups only
// happen during attacks. Excluding attack periods, SIF < IF (paper: 13.65
// vs 14.19 us).
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/experiment.h"

using namespace ibsec;
using fabric::FilterMode;
using workload::ScenarioConfig;

int main() {
  std::printf("=== Figure 5: No Filtering vs DPT vs IF vs SIF under a 1%%-duty "
              "DoS attack (4 attackers) ===\n\n");

  const std::vector<double> loads = {0.4, 0.5, 0.6, 0.7};
  const std::vector<FilterMode> modes = {FilterMode::kNone, FilterMode::kDpt,
                                         FilterMode::kIf, FilterMode::kSif};

  std::vector<ScenarioConfig> configs;
  for (double load : loads) {
    for (FilterMode mode : modes) {
      ScenarioConfig cfg;
      cfg.seed = 505;
      cfg.duration = 60 * time_literals::kMillisecond;
      cfg.warmup = 200 * time_literals::kMicrosecond;
      cfg.enable_realtime = false;
      // Calibration: "input load" is expressed relative to the saturation
      // point of uniform-random traffic on this 4x4 XY mesh (~80% of raw
      // link injection), so 70% load sits near-but-below saturation as in
      // the paper rather than past it.
      cfg.best_effort_load = load * 0.8;
      cfg.fabric.link.buffer_bytes_per_vl = 2176;
      cfg.fabric.filter_mode = mode;
      cfg.num_attackers = 4;
      cfg.attack_probability = 0.01;  // paper's "conservatively ... 1%"
      cfg.attack_burst = 100 * time_literals::kMicrosecond;
      cfg.attack_vl = fabric::kBestEffortVl;
      configs.push_back(cfg);
    }
  }
  bench::print_testbed_banner(configs.front().fabric);

  const auto results = workload::run_sweep(configs);

  std::printf("%-8s %-14s %14s %14s %14s %12s %12s\n", "Load", "Scheme",
              "Queue (us)", "Net (us)", "Total (us)", "sd(total)",
              "drops@sw");
  std::size_t i = 0;
  for (double load : loads) {
    for (FilterMode mode : modes) {
      const auto& r = results[i++];
      const auto& m = r.best_effort;
      std::printf("%-8.0f %-14s %14.2f %14.2f %14.2f %12.2f %12llu\n",
                  load * 100, fabric::to_string(mode), m.queuing_us.mean(),
                  m.latency_us.mean(), m.total_us.mean(),
                  m.total_us.stddev(),
                  static_cast<unsigned long long>(r.switch_filter_drops));
    }
  }

  // Shape check at the highest load: filtering beats no filtering, and the
  // filter family stays within a tight band of each other.
  const std::size_t base = (loads.size() - 1) * modes.size();
  const double none_total = results[base + 0].best_effort.total_us.mean();
  const double dpt_total = results[base + 1].best_effort.total_us.mean();
  const double if_total = results[base + 2].best_effort.total_us.mean();
  const double sif_total = results[base + 3].best_effort.total_us.mean();
  std::printf("\n70%% load totals: none=%.2f dpt=%.2f if=%.2f sif=%.2f\n",
              none_total, dpt_total, if_total, sif_total);
  const bool reproduced = none_total > dpt_total && none_total > if_total &&
                          none_total > sif_total &&
                          sif_total < 1.25 * if_total;
  std::printf("Paper shape: every filter beats No Filtering; SIF ~ IF: %s\n",
              reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return reproduced ? 0 : 1;
}
