// Workload machinery: source rates, attacker pacing/duty cycle, metrics
// classification, scenario determinism, and the parallel sweep runner.
#include <gtest/gtest.h>

#include "workload/experiment.h"

namespace ibsec::workload {
namespace {

using time_literals::kMicrosecond;
using time_literals::kMillisecond;

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.duration = 500 * kMicrosecond;
  cfg.warmup = 50 * kMicrosecond;
  return cfg;
}

TEST(MetricsCollector, ClassifiesAndExcludes) {
  MetricsCollector mc;
  mc.set_warmup(1000);

  ib::Packet good;
  good.meta.traffic_class = ib::PacketMeta::TrafficClass::kRealtime;
  good.meta.created_at = 2000;
  good.meta.injected_at = 3000;   // 1 ns queuing
  good.meta.delivered_at = 13000; // 10 ns latency
  mc.record(good);
  EXPECT_EQ(mc.realtime().queuing_us.count(), 1u);
  EXPECT_DOUBLE_EQ(mc.realtime().queuing_us.mean(), 0.001);
  EXPECT_DOUBLE_EQ(mc.realtime().latency_us.mean(), 0.010);

  ib::Packet attack = good;
  attack.meta.is_attack = true;
  mc.record(attack);
  EXPECT_EQ(mc.realtime().queuing_us.count(), 1u);  // excluded

  ib::Packet warm = good;
  warm.meta.created_at = 500;  // before warmup
  mc.record(warm);
  EXPECT_EQ(mc.realtime().queuing_us.count(), 1u);

  ib::Packet mgmt = good;
  mgmt.meta.traffic_class = ib::PacketMeta::TrafficClass::kManagement;
  mc.record(mgmt);
  EXPECT_EQ(mc.realtime().queuing_us.count(), 1u);

  ib::Packet be = good;
  be.meta.traffic_class = ib::PacketMeta::TrafficClass::kBestEffort;
  mc.record(be);
  EXPECT_EQ(mc.best_effort().queuing_us.count(), 1u);
}

TEST(ClassMetrics, MergeCombinesHistograms) {
  ClassMetrics a;
  ClassMetrics b;
  a.total_us.add(10.0);
  a.total_hist.add(10.0);
  b.total_us.add(30.0);
  b.total_hist.add(30.0);
  b.total_us.add(5000.0);  // overflow bucket (upper bound is 4000 us)
  b.total_hist.add(5000.0);

  a.merge(b);
  EXPECT_EQ(a.total_us.count(), 3u);
  EXPECT_EQ(a.total_hist.total(), 3u);
  EXPECT_EQ(a.total_hist.overflow(), 1u);
  // Percentiles now reflect both inputs: the median sits between 10 and 30.
  EXPECT_GT(a.total_p50(), 10.0);
  EXPECT_LT(a.total_p50(), 31.0);
}

TEST(ClassMetrics, MergeMatchesSingleCollector) {
  // Splitting a sample stream across two collectors and merging must give
  // the same histogram as one collector seeing everything.
  ClassMetrics whole;
  ClassMetrics left;
  ClassMetrics right;
  for (int i = 0; i < 1000; ++i) {
    const double sample = static_cast<double>((i * 37) % 4500);
    whole.total_hist.add(sample);
    (i % 2 ? left : right).total_hist.add(sample);
  }
  left.merge(right);
  ASSERT_EQ(left.total_hist.total(), whole.total_hist.total());
  EXPECT_EQ(left.total_hist.overflow(), whole.total_hist.overflow());
  for (int i = 0; i < whole.total_hist.buckets(); ++i) {
    ASSERT_EQ(left.total_hist.bucket_count(i), whole.total_hist.bucket_count(i));
  }
  EXPECT_DOUBLE_EQ(left.total_p99(), whole.total_p99());
}

TEST(HistogramMerge, ShapeMismatchRejected) {
  Histogram a(100.0, 10);
  Histogram b(100.0, 20);
  a.add(5.0);
  b.add(5.0);
  EXPECT_FALSE(a.merge(b));
  EXPECT_EQ(a.total(), 1u);  // untouched on rejection
}

TEST(Scenario, DeterministicForSameSeed) {
  auto run_once = [] {
    ScenarioConfig cfg = base_config();
    cfg.num_attackers = 1;
    Scenario s(cfg);
    return s.run();
  };
  const ScenarioResult a = run_once();
  const ScenarioResult b = run_once();
  EXPECT_EQ(a.best_effort.queuing_us.count(), b.best_effort.queuing_us.count());
  EXPECT_DOUBLE_EQ(a.best_effort.queuing_us.mean(),
                   b.best_effort.queuing_us.mean());
  EXPECT_DOUBLE_EQ(a.realtime.latency_us.mean(), b.realtime.latency_us.mean());
  EXPECT_EQ(a.attack_packets, b.attack_packets);
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(Scenario, DifferentSeedsDiffer) {
  ScenarioConfig cfg = base_config();
  Scenario s1(cfg);
  cfg.seed = 12;
  Scenario s2(cfg);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  EXPECT_NE(r1.best_effort.queuing_us.count(),
            r2.best_effort.queuing_us.count());
}

TEST(Scenario, TrafficStaysWithinPartitions) {
  ScenarioConfig cfg = base_config();
  Scenario s(cfg);
  // Record delivered (src, dst) pairs and check partition equality.
  std::vector<std::pair<int, int>> pairs;
  for (int node = 0; node < 16; ++node) {
    s.ca(node).set_receive_handler(
        [&pairs](const ib::Packet& pkt, const transport::QueuePair&) {
          pairs.emplace_back(static_cast<int>(pkt.meta.src_node),
                             static_cast<int>(pkt.meta.dst_node));
        });
  }
  s.run();
  ASSERT_FALSE(pairs.empty());
  const auto& partition = s.partition_of_node();
  for (const auto& [src, dst] : pairs) {
    EXPECT_EQ(partition[static_cast<std::size_t>(src)],
              partition[static_cast<std::size_t>(dst)]);
  }
}

TEST(Scenario, AttackerFloodsAtLineRate) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 1;
  cfg.enable_realtime = false;
  cfg.enable_best_effort = false;  // attacker only
  Scenario s(cfg);
  const auto r = s.run();
  // 550 us at one packet per ~3.39 us ≈ 162; allow slack for start offset.
  EXPECT_GT(r.attack_packets, 130u);
  EXPECT_LE(r.attack_packets, 170u);
  // Every attack packet that reached a CA was a P_Key violation.
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_GT(r.hca_pkey_violations, 0u);
}

TEST(Scenario, AttackDutyCycleScalesInjection) {
  ScenarioConfig cfg = base_config();
  cfg.duration = 2 * kMillisecond;
  cfg.num_attackers = 1;
  cfg.enable_realtime = false;
  cfg.enable_best_effort = false;
  cfg.attack_probability = 1.0;
  Scenario full(cfg);
  const auto r_full = full.run();

  cfg.attack_probability = 0.25;
  Scenario quarter(cfg);
  const auto r_quarter = quarter.run();
  EXPECT_LT(r_quarter.attack_packets, r_full.attack_packets / 2);
  EXPECT_GT(r_quarter.attack_packets, 0u);
}

TEST(Scenario, DosAttackRaisesQueuingMoreThanLatency) {
  // The paper's headline observation (Fig. 1) as a regression test.
  ScenarioConfig cfg = base_config();
  cfg.duration = 1 * kMillisecond;
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.5;
  cfg.fabric.link.buffer_bytes_per_vl = 2176;
  cfg.attack_vl = fabric::kBestEffortVl;
  Scenario clean(cfg);
  const auto r_clean = clean.run();

  cfg.num_attackers = 4;
  Scenario attacked(cfg);
  const auto r_attacked = attacked.run();

  EXPECT_GT(r_attacked.best_effort.queuing_us.mean(),
            3 * r_clean.best_effort.queuing_us.mean());
  // Latency grows but far less than queuing (credit-based flow control).
  EXPECT_LT(r_attacked.best_effort.latency_us.mean(),
            3 * r_clean.best_effort.latency_us.mean());
}

TEST(Scenario, SifBlocksAttackAfterTrapWindow) {
  ScenarioConfig cfg = base_config();
  cfg.duration = 1 * kMillisecond;
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  Scenario s(cfg);
  const auto r = s.run();
  EXPECT_GT(r.sm_traps_received, 0u);
  EXPECT_GT(r.sif_installs, 0u);
  EXPECT_GT(r.switch_filter_drops, 0u);
  // Early leakage is bounded: far fewer violations reach HCAs than the
  // attacker injected.
  EXPECT_LT(r.hca_pkey_violations, r.attack_packets / 2);
}

TEST(Scenario, IfBlocksEverything) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = fabric::FilterMode::kIf;
  Scenario s(cfg);
  const auto r = s.run();
  EXPECT_EQ(r.hca_pkey_violations, 0u);
  // All attack packets are dropped at the ingress switch; a couple may
  // still be in flight in the attacker's HCA when the horizon is reached.
  EXPECT_GE(r.switch_filter_drops + 5, r.attack_packets);
  EXPECT_GT(r.switch_filter_drops, 0u);
}

TEST(Scenario, SifSuppressesTrapFloodOnSm) {
  // Sec. 7 warns that trap MADs themselves can DoS the SM: every violating
  // packet a victim sees becomes a VL15 trap. With SIF, the flood is cut at
  // the ingress switch, so victims stop seeing violations and the SM's trap
  // load collapses — an emergent benefit of switch-level enforcement.
  ScenarioConfig cfg = base_config();
  cfg.duration = 1 * kMillisecond;
  cfg.num_attackers = 3;
  cfg.fabric.filter_mode = fabric::FilterMode::kNone;
  Scenario unprotected(cfg);
  const auto r_none = unprotected.run();

  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  Scenario protected_run(cfg);
  const auto r_sif = protected_run.run();

  EXPECT_GT(r_none.sm_traps_received, 100u);
  EXPECT_LT(r_sif.sm_traps_received, r_none.sm_traps_received / 3);
}

TEST(Scenario, LinkUtilizationBounded) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  Scenario s(cfg);
  s.run();
  const double util = s.fabric().max_link_utilization();
  EXPECT_GT(util, 0.1);   // somebody is busy
  EXPECT_LE(util, 1.0);   // nobody exceeds physics
}

TEST(Scenario, AuthenticatedRunDeliversTraffic) {
  ScenarioConfig cfg = base_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  Scenario s(cfg);
  const auto r = s.run();
  EXPECT_GT(r.delivered, 100u);
  EXPECT_EQ(r.auth_rejected, 0u);  // all legitimate traffic has valid tags
}

TEST(ScenarioDeathTest, RejectsRcReliabilityWithReplayProtection) {
  // RC retransmissions reuse their PSNs, which the replay window rejects,
  // so the combination is refused at construction instead of losing every
  // resend.
  ScenarioConfig cfg = base_config();
  cfg.rc.enabled = true;
  cfg.replay_protection = true;
  EXPECT_DEATH({ Scenario s(cfg); },
               "rc.enabled and replay_protection cannot be combined");
}

TEST(Scenario, QpLevelKeyExchangeAddsBoundedOverhead) {
  ScenarioConfig cfg = base_config();
  cfg.duration = 1 * kMillisecond;
  Scenario baseline(cfg);
  const auto r_base = baseline.run();

  cfg.key_management = KeyManagement::kQpLevel;
  cfg.auth_enabled = true;
  Scenario with_keys(cfg);
  const auto r_keys = with_keys.run();

  EXPECT_GT(r_keys.delivered, 100u);
  // Queuing rises (first-contact RTT) but stays the same order of magnitude
  // — the paper's "overhead is insignificant".
  EXPECT_LT(r_keys.best_effort.queuing_us.mean(),
            r_base.best_effort.queuing_us.mean() + 20.0);
}

// Every production MAC algorithm drives a full authenticated scenario:
// keys distribute, every packet signs and verifies, nothing legitimate is
// rejected.
class AuthAlgorithmScenario
    : public ::testing::TestWithParam<crypto::AuthAlgorithm> {};

TEST_P(AuthAlgorithmScenario, EndToEndTrafficFlows) {
  ScenarioConfig cfg = base_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.auth_alg = GetParam();
  Scenario s(cfg);
  const auto r = s.run();
  EXPECT_GT(r.delivered, 100u) << crypto::to_string(GetParam());
  EXPECT_EQ(r.auth_rejected, 0u) << crypto::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AuthAlgorithmScenario,
                         ::testing::Values(crypto::AuthAlgorithm::kUmac32,
                                           crypto::AuthAlgorithm::kHmacMd5,
                                           crypto::AuthAlgorithm::kHmacSha1,
                                           crypto::AuthAlgorithm::kHmacSha256,
                                           crypto::AuthAlgorithm::kPmac));

TEST(RunSweep, MatchesSerialExecution) {
  std::vector<ScenarioConfig> configs;
  for (int i = 0; i < 4; ++i) {
    ScenarioConfig cfg = base_config();
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    configs.push_back(cfg);
  }
  const auto parallel = run_sweep(configs, 4);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Scenario serial(configs[i]);
    const auto r = serial.run();
    EXPECT_DOUBLE_EQ(parallel[i].best_effort.queuing_us.mean(),
                     r.best_effort.queuing_us.mean())
        << i;
    EXPECT_EQ(parallel[i].delivered, r.delivered) << i;
  }
}

}  // namespace
}  // namespace ibsec::workload
