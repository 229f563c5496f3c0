// Observability registry: handle semantics, kind collisions, snapshot
// flattening, JSON/CSV export, wildcard queries, cold-start behavior, and
// reads of lazily created counters.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/registry.h"
#include "workload/scenario.h"

namespace ibsec::obs {
namespace {

/// Number of snapshot entries whose name matches `pattern`.
std::size_t count_matching(const Snapshot& snap, std::string_view pattern) {
  return static_cast<std::size_t>(
      std::count_if(snap.values.begin(), snap.values.end(),
                    [&](const auto& entry) {
                      return glob_match(pattern, entry.first);
                    }));
}

TEST(Counter, IncrementsByAmount) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksHighWater) {
  Gauge g;
  g.set(10);
  g.set(3);
  g.add(4);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.high_water(), 10);
}

TEST(TimeAccumulator, SumsDurations) {
  TimeAccumulator t;
  t.add(100);
  t.add(250);
  EXPECT_EQ(t.total(), 350);
  EXPECT_EQ(t.count(), 2u);
}

TEST(Registry, SameNameSameKindSharesMetric) {
  Registry reg;
  Counter& a = reg.counter("auth.verify_ok");
  Counter& b = reg.counter("auth.verify_ok");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc();
  EXPECT_EQ(reg.snapshot().at("auth.verify_ok"), 2);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindCollisionReturnsSinkAndIsExported) {
  Registry reg;
  Counter& real = reg.counter("switch.0.forwarded");
  real.inc(5);

  // Re-resolving under a different kind must not disturb the original.
  Gauge& sink = reg.gauge("switch.0.forwarded");
  sink.set(999);
  EXPECT_EQ(reg.kind_collisions(), 1u);

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.at("switch.0.forwarded"), 5);
  EXPECT_FALSE(snap.contains("switch.0.forwarded.hwm"));  // sink not exported
  EXPECT_EQ(snap.at("obs.kind_collisions"), 1);
}

TEST(Registry, SnapshotFlattensEveryKind) {
  Registry reg;
  reg.counter("n.count").inc(3);
  reg.gauge("n.depth").set(12);
  reg.time_accumulator("n.stall").add(500);
  reg.time_accumulator("n.stall").add(700);
  Histogram& h = reg.histogram("n.lat", 100.0, 10);
  h.add(10.0);
  h.add(20.0);
  h.add(500.0);  // overflow

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.at("n.count"), 3);
  EXPECT_EQ(snap.at("n.depth"), 12);
  EXPECT_EQ(snap.at("n.depth.hwm"), 12);
  EXPECT_EQ(snap.at("n.stall.total_ps"), 1200);
  EXPECT_EQ(snap.at("n.stall.count"), 2);
  EXPECT_EQ(snap.at("n.lat.count"), 3);
  EXPECT_EQ(snap.at("n.lat.overflow"), 1);
  EXPECT_GT(snap.at("n.lat.p50_x1000"), 0);
  // Exact extremes, not bucket-quantized: the overflow sample is the max.
  EXPECT_EQ(snap.at("n.lat.min_x1000"), 10000);
  EXPECT_EQ(snap.at("n.lat.max_x1000"), 500000);
}

TEST(Registry, SnapshotIsolatedFromLaterUpdates) {
  Registry reg;
  Counter& c = reg.counter("x");
  c.inc();
  const Snapshot before = reg.snapshot();
  c.inc(10);
  const Snapshot after = reg.snapshot();
  EXPECT_EQ(before.at("x"), 1);
  EXPECT_EQ(after.at("x"), 11);
  EXPECT_NE(before, after);
}

TEST(Snapshot, JsonIsSortedFlatIntegers) {
  Registry reg;
  EXPECT_EQ(reg.snapshot().to_json(), "{}\n");
  reg.counter("switch.3.drop.pkey_mismatch").inc(17);
  reg.counter("sm.traps_received").inc(4);
  reg.gauge("vl.occupancy").set(-2);  // negative values print signed
  EXPECT_EQ(reg.snapshot().to_json(),
            "{\n"
            "  \"sm.traps_received\": 4,\n"
            "  \"switch.3.drop.pkey_mismatch\": 17,\n"
            "  \"vl.occupancy\": -2,\n"
            "  \"vl.occupancy.hwm\": 0\n"
            "}\n");
}

TEST(Snapshot, CsvHasHeaderAndSortedRows) {
  Registry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  EXPECT_EQ(reg.snapshot().to_csv(), "name,value\na,1\nb,2\n");
}

TEST(Snapshot, WildcardQueries) {
  Registry reg;
  reg.counter("switch.0.drop.pkey_mismatch").inc(3);
  reg.counter("switch.1.drop.pkey_mismatch").inc(4);
  reg.counter("switch.1.drop.no_route").inc(9);
  reg.counter("switch.1.forwarded").inc(100);

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.sum_matching("switch.*.drop.pkey_mismatch"), 7);
  EXPECT_EQ(snap.sum_matching("switch.*.drop.*"), 16);
  EXPECT_EQ(count_matching(snap, "switch.1.*"), 3u);
  EXPECT_EQ(snap.sum_matching("hca.*"), 0);
}

TEST(GlobMatch, Basics) {
  EXPECT_TRUE(glob_match("a.*.c", "a.b.c"));
  EXPECT_TRUE(glob_match("a.*.c", "a.x.y.c"));  // '*' spans dots
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("a.b", "a.b"));
  EXPECT_FALSE(glob_match("a.b", "a.b.c"));
  EXPECT_FALSE(glob_match("a.*.c", "a.b.d"));
  EXPECT_TRUE(glob_match("*.end", "start.middle.end"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(ColdScenario, RegistersMetricsButCountsNothing) {
  // Building the full testbed without running it must leave every counter
  // at zero while the names are already registered.
  workload::ScenarioConfig cfg;
  cfg.seed = 5;
  workload::Scenario scenario(cfg);
  const Snapshot snap = scenario.fabric().simulator().obs().snapshot();

  EXPECT_GT(count_matching(snap, "switch.*"), 0u);
  EXPECT_GT(count_matching(snap, "hca.*"), 0u);
  EXPECT_GT(count_matching(snap, "ca.*"), 0u);
  EXPECT_EQ(snap.sum_matching("hca.*.injected"), 0);
  EXPECT_EQ(snap.sum_matching("switch.*.drop.*"), 0);
  EXPECT_EQ(snap.sum_matching("ca.*.retired.*"), 0);
  EXPECT_EQ(snap.sum_matching("attack.*"), 0);
}

TEST(LazyCounters, ReadAsZeroWithoutCreatingAnEntry) {
  // Counters that only an attack or a validation verdict creates read as 0
  // before they exist, and reading them must not create them: an
  // attack-free snapshot keeps exactly the entries it had.
  workload::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.duration = 50 * time_literals::kMicrosecond;
  workload::Scenario scenario(cfg);
  scenario.run();
  Registry& reg = scenario.fabric().simulator().obs();
  const std::size_t metrics = reg.size();

  EXPECT_EQ(scenario.sm().traps_rejected(), 0u);
  EXPECT_EQ(scenario.sm().poisoned_installs(), 0u);
  for (int n = 0; n < scenario.fabric().node_count(); ++n) {
    EXPECT_EQ(scenario.ca(n).rc_spoofed_accepted(), 0u);
    for (ib::Qpn qpn = 0; qpn < 8; ++qpn) {
      EXPECT_EQ(scenario.ca(n).qkey_drops(qpn), 0u);
    }
  }
  EXPECT_EQ(reg.size(), metrics);
  const Snapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.contains("sm.traps_rejected"));
  EXPECT_FALSE(snap.contains("sm.sif_poisoned_installs"));
  EXPECT_EQ(count_matching(snap, "ca.*.rc.spoofed_control_accepted"), 0u);
  EXPECT_EQ(count_matching(snap, "ca.*.qp.*.dropped_bad_qkey"), 0u);
}

}  // namespace
}  // namespace ibsec::obs
