// Figure 1 — Average queuing time & network latency under DoS attacks.
//
// Paper setup (sec. 3.1): 16-node mesh, four random partitions, honest nodes
// send at a predefined rate to same-partition peers; attackers flood random
// destinations at full 2.5 Gbps with random (invalid) P_Keys. The realtime
// and best-effort experiments are run separately, each measured on its own
// VL; the sweep variable is the number of attackers (0-4).
//
// Expected shape (paper): queuing time explodes (5 us -> ~100 us realtime,
// -> ~350 us best-effort) while network latency degrades only marginally,
// because credit-based flow control pushes congestion back into the source
// HCAs. Best-effort suffers more than realtime (VL priority).
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/experiment.h"

using namespace ibsec;
using workload::ScenarioConfig;

namespace {

fabric::TopologySpec g_topology;  // set once from --topology before the sweep

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  cfg.seed = 2005;
  cfg.fabric.topology = g_topology;
  cfg.duration = 4 * time_literals::kMillisecond;
  cfg.warmup = 200 * time_literals::kMicrosecond;
  cfg.fabric.link.buffer_bytes_per_vl = 2176;  // 2 MTU packets deep
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::parse_topology_arg(argc, argv, g_topology)) return 2;
  std::printf("=== Figure 1: average queuing time & network latency vs. "
              "number of attackers ===\n\n");
  bench::print_testbed_banner(base_config().fabric);

  constexpr int kMaxAttackers = 4;
  std::vector<ScenarioConfig> configs;

  // (a) realtime workload, attack contends on the realtime VL.
  for (int a = 0; a <= kMaxAttackers; ++a) {
    ScenarioConfig cfg = base_config();
    cfg.enable_best_effort = false;
    cfg.realtime_rate = 0.40;
    cfg.num_attackers = a;
    cfg.attack_vl = fabric::kRealtimeVl;
    configs.push_back(cfg);
  }
  // (b) best-effort workload, attack contends on the best-effort VL.
  for (int a = 0; a <= kMaxAttackers; ++a) {
    ScenarioConfig cfg = base_config();
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.4;
    cfg.num_attackers = a;
    cfg.attack_vl = fabric::kBestEffortVl;
    configs.push_back(cfg);
  }

  const auto results = workload::run_sweep(configs);

  std::printf("(a) Realtime traffic (CBR 40%% of link rate, priority VL)\n");
  std::printf("%-14s %18s %18s\n", "Attackers", "Queuing (us)",
              "Net latency (us)");
  for (int a = 0; a <= kMaxAttackers; ++a) {
    const auto& m = results[static_cast<std::size_t>(a)].realtime;
    std::printf("%-14d %18.2f %18.2f\n", a, m.queuing_us.mean(),
                m.latency_us.mean());
  }

  std::printf("\n(b) Best-effort traffic (Poisson, 40%% injection rate)\n");
  std::printf("%-14s %18s %18s\n", "Attackers", "Queuing (us)",
              "Net latency (us)");
  for (int a = 0; a <= kMaxAttackers; ++a) {
    const auto& m =
        results[static_cast<std::size_t>(kMaxAttackers + 1 + a)].best_effort;
    std::printf("%-14d %18.2f %18.2f\n", a, m.queuing_us.mean(),
                m.latency_us.mean());
  }

  // Shape assertions (EXPERIMENTS.md records these as the reproduction
  // criteria): queuing rises sharply with attackers; latency only mildly.
  const auto& rt0 = results[0].realtime;
  const auto& rt4 = results[kMaxAttackers].realtime;
  const auto& be0 = results[kMaxAttackers + 1].best_effort;
  const auto& be4 = results[2 * kMaxAttackers + 1].best_effort;
  const double rt_q_ratio = rt4.queuing_us.mean() /
                            std::max(1.0, rt0.queuing_us.mean());
  const double be_q_ratio = be4.queuing_us.mean() /
                            std::max(1.0, be0.queuing_us.mean());
  std::printf("\nShape check: realtime queuing x%.1f, latency x%.1f | "
              "best-effort queuing x%.1f, latency x%.1f\n",
              rt_q_ratio, rt4.latency_us.mean() / rt0.latency_us.mean(),
              be_q_ratio, be4.latency_us.mean() / be0.latency_us.mean());
  const bool reproduced = rt_q_ratio > 3 && be_q_ratio > 3 &&
                          be4.queuing_us.mean() > rt4.queuing_us.mean();
  std::printf("Paper shape: queuing grows by an order of magnitude, latency "
              "marginally; best-effort hit harder than realtime: %s\n",
              reproduced ? "REPRODUCED" : "NOT REPRODUCED");
  return reproduced ? 0 : 1;
}
