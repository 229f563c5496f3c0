// Collective-correctness suite: every MPI-style workload, on every
// topology, delivers exactly the message multiset its schedule promises —
// all-to-all's N*(N-1) personalized sends, the ring and recursive-doubling
// allreduce step patterns, and the incast fan-in — with byte-identical
// exports across reruns and sweep worker counts. Plus the multi-tenant
// partition layout stressing the key-manager/SIF table paths with
// thousands of partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workload/experiment.h"
#include "workload/scenario.h"

namespace ibsec::workload {
namespace {

using fabric::TopologyKind;

fabric::TopologySpec mesh_spec() { return {}; }

fabric::TopologySpec fattree_spec() {
  fabric::TopologySpec spec;
  spec.kind = TopologyKind::kFatTree;
  spec.fattree_k = 4;  // 16 hosts
  return spec;
}

/// A quiet scenario (no background sources, no attackers) so the delivered
/// multiset is exactly the collective schedule.
ScenarioConfig quiet_config(const fabric::TopologySpec& topo,
                            const WorkloadSpec& workload) {
  ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.fabric.topology = topo;
  cfg.enable_realtime = false;
  cfg.enable_best_effort = false;
  cfg.workload = workload;
  cfg.warmup = 50 * time_literals::kMicrosecond;
  // Generous ceiling: longest schedule here is ring allreduce on 16 ranks
  // (30 steps * 50us) plus drain time.
  cfg.duration = 2 * time_literals::kMillisecond;
  return cfg;
}

void expect_exact_multiset(const fabric::TopologySpec& topo,
                           const WorkloadSpec& workload) {
  Scenario scenario(quiet_config(topo, workload));
  ASSERT_NE(scenario.collective(), nullptr);
  const int ranks = scenario.collective()->ranks();
  const std::vector<CollectiveMessage> expected =
      collective_schedule(workload, ranks);
  ASSERT_FALSE(expected.empty());

  scenario.run();

  EXPECT_EQ(scenario.collective()->posted(), expected.size());
  EXPECT_EQ(scenario.collective()->post_failures(), 0u);
  EXPECT_EQ(scenario.collective()->payload_mismatches(), 0u);

  std::vector<CollectiveMessage> got = scenario.collective()->delivered();
  std::vector<CollectiveMessage> want = expected;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size())
      << "delivered " << got.size() << " of " << want.size() << " on "
      << topo.to_string() << " / " << workload.to_string();
  EXPECT_TRUE(got == want);
}

// ------------------------------------------------------- schedule oracle

TEST(CollectiveSchedule, AllToAllIsEveryOrderedPairOncePerRound) {
  WorkloadSpec spec;
  spec.kind = WorkloadSpec::Kind::kAllToAll;
  spec.rounds = 2;
  const auto sched = collective_schedule(spec, 12);
  EXPECT_EQ(sched.size(), 2u * 12u * 11u);
  // Within one round, each ordered pair appears exactly once.
  std::set<std::pair<int, int>> pairs;
  for (const auto& m : sched) {
    if (m.step < 11) {
      EXPECT_NE(m.src, m.dst);
      EXPECT_TRUE(pairs.insert({m.src, m.dst}).second);
    }
  }
  EXPECT_EQ(pairs.size(), 12u * 11u);
}

TEST(CollectiveSchedule, RingAllReduceMatchesTwoPassNeighborPattern) {
  WorkloadSpec spec;
  spec.kind = WorkloadSpec::Kind::kAllReduceRing;
  const int n = 9;
  const auto sched = collective_schedule(spec, n);
  EXPECT_EQ(sched.size(), static_cast<std::size_t>(2 * (n - 1) * n));
  for (const auto& m : sched) {
    EXPECT_EQ(m.dst, (m.src + 1) % n);          // ring successor only
    EXPECT_LT(m.step, static_cast<std::uint32_t>(2 * (n - 1)));
  }
}

TEST(CollectiveSchedule, RecursiveDoublingMatchesMpichShape) {
  WorkloadSpec spec;
  spec.kind = WorkloadSpec::Kind::kAllReduceRd;
  // Power of two: pure pairwise exchange, log2(n) steps.
  const auto pow2 = collective_schedule(spec, 16);
  EXPECT_EQ(pow2.size(), 16u * 4u);
  for (const auto& m : pow2) {
    EXPECT_EQ(m.dst, m.src ^ (1 << m.step));  // partner distance = 2^step
  }
  // Non-power-of-two: 12 = 8 + 4 extras -> pre(4) + 8*log2(8) + post(4).
  const auto mixed = collective_schedule(spec, 12);
  EXPECT_EQ(mixed.size(), 4u + 24u + 4u);
  std::uint32_t max_step = 0;
  for (const auto& m : mixed) max_step = std::max(max_step, m.step);
  EXPECT_EQ(max_step, 4u);  // pre + 3 doubling steps + post
}

TEST(CollectiveSchedule, IncastFansInToOneTarget) {
  WorkloadSpec spec;
  spec.kind = WorkloadSpec::Kind::kIncast;
  spec.incast_target = 3;
  spec.rounds = 5;
  const auto sched = collective_schedule(spec, 8);
  EXPECT_EQ(sched.size(), 5u * 7u);
  for (const auto& m : sched) {
    EXPECT_EQ(m.dst, 3);
    EXPECT_NE(m.src, 3);
  }
}

TEST(CollectiveSchedule, SpecParseRoundTrips) {
  for (const char* text :
       {"alltoall:bytes=512,rounds=2", "allreduce:algo=ring",
        "allreduce:algo=rd,bytes=128", "incast:target=3,rounds=4",
        "alltoall:bytes=64,rounds=4,interval_us=55"}) {
    const auto spec = WorkloadSpec::parse(text);
    ASSERT_TRUE(spec.has_value()) << text;
    const auto again = WorkloadSpec::parse(spec->to_string());
    ASSERT_TRUE(again.has_value()) << spec->to_string();
    EXPECT_EQ(again->to_string(), spec->to_string());
    EXPECT_EQ(again->step_interval, spec->step_interval) << text;
  }
  // A non-default step interval survives, and is the only way it shows.
  const auto paced =
      WorkloadSpec::parse("alltoall:bytes=64,rounds=4,interval_us=55");
  ASSERT_TRUE(paced.has_value());
  EXPECT_EQ(paced->step_interval, 55 * time_literals::kMicrosecond);
  EXPECT_EQ(paced->to_string(), "alltoall:bytes=64,rounds=4,interval_us=55");
  EXPECT_EQ(WorkloadSpec::parse("alltoall")->to_string(),
            "alltoall:bytes=256,rounds=1");
  for (const char* text :
       {"allgather", "allreduce:algo=tree", "alltoall:bytes=0",
        "incast:target=-1", "alltoall:junk",
        // A key given twice is rejected, not read last-one-wins.
        "alltoall:bytes=64,bytes=128", "allreduce:algo=ring,algo=rd"}) {
    EXPECT_FALSE(WorkloadSpec::parse(text).has_value()) << text;
  }
}

// --------------------------------------- exact delivery on each topology

// Holds no pointer, so no load address can reach a test's name.
struct TopoCase {
  char name[16];
};

// Prints the name: gtest would otherwise list the array's raw bytes in each
// test's ctest name.
void PrintTo(const TopoCase& c, std::ostream* os) { *os << c.name; }

fabric::TopologySpec spec_named(std::string_view name) {
  if (name == "fattree") return fattree_spec();
  return mesh_spec();
}

class CollectiveOnTopology : public ::testing::TestWithParam<TopoCase> {};

TEST_P(CollectiveOnTopology, AllToAllDeliversExactMultiset) {
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kAllToAll;
  expect_exact_multiset(spec_named(GetParam().name), w);
}

TEST_P(CollectiveOnTopology, RingAllReduceDeliversExactMultiset) {
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kAllReduceRing;
  expect_exact_multiset(spec_named(GetParam().name), w);
}

TEST_P(CollectiveOnTopology, RecursiveDoublingDeliversExactMultiset) {
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kAllReduceRd;
  expect_exact_multiset(spec_named(GetParam().name), w);
}

TEST_P(CollectiveOnTopology, IncastDeliversExactMultiset) {
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kIncast;
  w.incast_target = 1;
  w.rounds = 3;
  expect_exact_multiset(spec_named(GetParam().name), w);
}

INSTANTIATE_TEST_SUITE_P(Topologies, CollectiveOnTopology,
                         ::testing::Values(TopoCase{"mesh"},
                                           TopoCase{"fattree"}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(CollectiveDefenses, SifFilteringDoesNotDropCollectiveTraffic) {
  // The job-wide communicator uses the default P_Key; every filter mode
  // must pass it even while defending.
  for (const fabric::FilterMode mode :
       {fabric::FilterMode::kDpt, fabric::FilterMode::kIf,
        fabric::FilterMode::kSif}) {
    WorkloadSpec w;
    w.kind = WorkloadSpec::Kind::kAllToAll;
    ScenarioConfig cfg = quiet_config(fattree_spec(), w);
    cfg.fabric.filter_mode = mode;
    Scenario scenario(cfg);
    const auto expected =
        collective_schedule(w, scenario.collective()->ranks());
    scenario.run();
    EXPECT_EQ(scenario.collective()->delivered().size(), expected.size())
        << "filter mode " << static_cast<int>(mode);
  }
}

// ------------------------------------------------ determinism / workers

TEST(CollectiveDeterminism, RerunsAreByteIdentical) {
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kAllReduceRd;
  const ScenarioConfig cfg = quiet_config(fattree_spec(), w);
  Scenario a(cfg);
  Scenario b(cfg);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.obs.to_json(), rb.obs.to_json());
  EXPECT_TRUE(a.collective()->delivered() == b.collective()->delivered())
      << "delivery order must match, not just the multiset";
}

TEST(CollectiveDeterminism, SweepWorkerCountInvariant) {
  // The same configs through 1 worker and 4 workers must export
  // byte-identical snapshots — thread scheduling cannot leak in.
  std::vector<ScenarioConfig> configs;
  for (int i = 0; i < 3; ++i) {
    WorkloadSpec w;
    w.kind = i == 0 ? WorkloadSpec::Kind::kAllToAll
                    : (i == 1 ? WorkloadSpec::Kind::kAllReduceRing
                              : WorkloadSpec::Kind::kIncast);
    ScenarioConfig cfg = quiet_config(fattree_spec(), w);
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    configs.push_back(cfg);
  }
  const auto serial = run_sweep(configs, 1);
  const auto parallel = run_sweep(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].obs.to_json(), parallel[i].obs.to_json())
        << "config " << i;
  }
}

// --------------------------------------------------------- multi-tenant

TEST(MultiTenant, ThousandsOfPartitionsStressKeyAndFilterTables) {
  ScenarioConfig cfg;
  cfg.seed = 55;
  cfg.num_partitions = 2048;  // 16 nodes -> ~256 memberships per node
  cfg.multi_tenant = true;
  cfg.fabric.filter_mode = fabric::FilterMode::kIf;
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.2;
  cfg.duration = 300 * time_literals::kMicrosecond;
  Scenario scenario(cfg);
  const auto r = scenario.run();

  // One secret distributed per partition, and the per-node ingress tables
  // hold the full membership blow-up (2 entries per partition + defaults).
  EXPECT_EQ(r.obs.at("sm.secrets_distributed"), 2048);
  EXPECT_EQ(r.obs.at("sm.partitions_created"), 2048);
  EXPECT_GT(r.switch_table_memory,
            static_cast<std::size_t>(2 * 2048 * sizeof(std::uint16_t) / 2));
  EXPECT_GT(r.delivered, 0u);
  // Ring traffic signed under partition-level keys still flows.
  EXPECT_GT(r.best_effort.total_us.count(), 0u);
}

TEST(MultiTenant, CollectiveSpansTenantsOnFatTree) {
  WorkloadSpec w;
  w.kind = WorkloadSpec::Kind::kAllToAll;
  ScenarioConfig cfg = quiet_config(fattree_spec(), w);
  cfg.multi_tenant = true;
  cfg.num_partitions = 1024;
  Scenario scenario(cfg);
  const auto expected = collective_schedule(w, scenario.collective()->ranks());
  scenario.run();
  // The default-P_Key communicator crosses all 1024 tenant boundaries.
  EXPECT_EQ(scenario.collective()->delivered().size(), expected.size());
  EXPECT_EQ(scenario.collective()->payload_mismatches(), 0u);
}

}  // namespace
}  // namespace ibsec::workload
