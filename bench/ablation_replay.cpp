// Ablation — PSN replay window (paper sec. 7 extension).
//
// The paper defers replay protection to future work, noting nonce
// management "will be another overhead". This ablation quantifies that
// overhead in the fabric model: the PSN window is O(1) state per stream and
// adds no wire bytes (the PSN already exists), so the measured cost is
// zero; the benefit is measured by injecting verbatim replays of captured
// authenticated packets and counting how many land.
#include <cstdio>

#include "bench/bench_util.h"
#include "security/auth_engine.h"
#include "workload/experiment.h"

using namespace ibsec;
using workload::KeyManagement;
using workload::ScenarioConfig;

int main() {
  std::printf("=== Ablation: PSN replay window on/off ===\n\n");

  std::vector<ScenarioConfig> configs;
  for (bool replay_protection : {false, true}) {
    ScenarioConfig cfg;
    cfg.seed = 909;
    cfg.duration = 5 * time_literals::kMillisecond;
    cfg.enable_realtime = false;
    cfg.best_effort_load = 0.5;
    cfg.key_management = KeyManagement::kPartitionLevel;
    cfg.auth_enabled = true;
    cfg.replay_protection = replay_protection;
    configs.push_back(cfg);
  }
  const auto results = workload::run_sweep(configs);

  std::printf("%-14s %12s %12s %12s %12s\n", "Window", "Queue (us)",
              "Net (us)", "delivered", "auth rej");
  for (std::size_t i = 0; i < 2; ++i) {
    std::printf("%-14s %12.2f %12.2f %12llu %12llu\n", i ? "on" : "off",
                results[i].best_effort.queuing_us.mean(),
                results[i].best_effort.latency_us.mean(),
                static_cast<unsigned long long>(results[i].delivered),
                static_cast<unsigned long long>(results[i].auth_rejected));
  }

  // Cost: protection must not reject legitimate in-order traffic and must
  // not measurably change delay.
  const bool zero_cost =
      results[1].auth_rejected == 0 &&
      std::abs(results[1].best_effort.queuing_us.mean() -
               results[0].best_effort.queuing_us.mean()) < 2.0;

  // Benefit: replay captured authenticated packets into a protected victim.
  ScenarioConfig cfg = configs[1];
  workload::Scenario scenario(cfg);
  // Capture some packets at node 0 (if it isn't the attacker).
  std::vector<ib::Packet> captured;
  scenario.ca(0).set_delivery_probe([&](const ib::Packet& pkt) {
    scenario.metrics().record(pkt);
    if (captured.size() < 50 && pkt.meta.dst_node == 0 && pkt.deth) {
      captured.push_back(pkt);
    }
  });
  scenario.run();
  const obs::Counter& rejected = *scenario.ca(0).retire_obs().auth_rejected;
  const auto rejected_before = rejected.value();
  for (const ib::Packet& pkt : captured) {
    ib::Packet replay = pkt;
    replay.meta = ib::PacketMeta{};
    replay.meta.is_attack = true;
    scenario.ca(5).inject_raw(std::move(replay));
  }
  scenario.fabric().simulator().run();
  const auto rejected_after = rejected.value();
  const auto blocked = rejected_after - rejected_before;

  std::printf("\nReplayed %zu captured packets; %llu blocked by the window\n",
              captured.size(), static_cast<unsigned long long>(blocked));
  std::printf("Zero measured cost and full replay rejection: %s\n",
              (zero_cost && blocked == captured.size()) ? "CONFIRMED"
                                                        : "NOT CONFIRMED");
  return 0;
}
