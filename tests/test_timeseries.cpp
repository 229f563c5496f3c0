// TimeSeriesSampler: pattern filtering, bucket accumulation, the sample
// cap, and the byte-deterministic CSV export (union columns, zero
// backfill) — plus a differential test against the per-tick snapshot
// definition the columnar store replaces.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "obs/registry.h"
#include "obs/timeseries.h"

namespace ibsec::obs {
namespace {

TEST(TimeSeries, EmptyPatternsKeepEverything) {
  Registry reg;
  reg.counter("a.count").inc();
  reg.gauge("b.depth").set(7);
  TimeSeriesSampler sampler(reg, {});
  sampler.sample(1000);
  ASSERT_EQ(sampler.rows(), 1u);
  EXPECT_EQ(sampler.value(0, "a.count"), 1);
  EXPECT_EQ(sampler.value(0, "b.depth"), 7);
  EXPECT_EQ(sampler.row_time(0), 1000);
}

TEST(TimeSeries, PatternsFilterSnapshotNames) {
  Registry reg;
  reg.counter("link.sw0.packets").inc(3);
  reg.counter("link.sw1.packets").inc(5);
  reg.counter("hca.0.injected").inc(9);
  TimeSeriesConfig cfg;
  cfg.patterns = {"link.*.packets"};
  TimeSeriesSampler sampler(reg, cfg);
  sampler.sample(0);
  EXPECT_EQ(sampler.columns(), 2u);
  EXPECT_EQ(sampler.value(0, "link.sw0.packets"), 3);
  EXPECT_EQ(sampler.value(0, "link.sw1.packets"), 5);
  EXPECT_EQ(sampler.value(0, "hca.0.injected"), std::nullopt);
}

TEST(TimeSeries, BucketsSeeCounterProgress) {
  Registry reg;
  Counter& count = reg.counter("x");
  TimeSeriesSampler sampler(reg, {});
  sampler.sample(0);
  count.inc(10);
  sampler.sample(100);
  count.inc(5);
  sampler.sample(200);
  ASSERT_EQ(sampler.rows(), 3u);
  EXPECT_EQ(sampler.value(0, "x"), 0);
  EXPECT_EQ(sampler.value(1, "x"), 10);
  EXPECT_EQ(sampler.value(2, "x"), 15);
}

TEST(TimeSeries, SampleCapCountsDropped) {
  Registry reg;
  reg.counter("x");
  TimeSeriesConfig cfg;
  cfg.max_samples = 2;
  TimeSeriesSampler sampler(reg, cfg);
  for (int i = 0; i < 5; ++i) sampler.sample(i * 10);
  EXPECT_EQ(sampler.rows(), 2u);
  EXPECT_EQ(sampler.dropped_samples(), 3u);
  // The first buckets survive (the cap drops newest).
  EXPECT_EQ(sampler.row_time(0), 0);
  EXPECT_EQ(sampler.row_time(1), 10);
}

TEST(TimeSeries, CsvBackfillsLateMetricsWithZero) {
  Registry reg;
  reg.counter("early").inc(1);
  TimeSeriesSampler sampler(reg, {});
  sampler.sample(0);
  reg.counter("late").inc(4);  // lazily created after the first bucket
  sampler.sample(100);
  const std::string csv = sampler.to_csv();
  // Union of names, sorted: header covers both columns.
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_ps,early,late");
  EXPECT_NE(csv.find("0,1,0\n"), std::string::npos);
  EXPECT_NE(csv.find("100,1,4\n"), std::string::npos);
}

TEST(TimeSeries, CsvIsByteDeterministic) {
  const auto build = [] {
    Registry reg;
    reg.counter("b").inc(2);
    reg.counter("a").inc(1);
    reg.gauge("c.depth").set(-3);
    TimeSeriesConfig cfg;
    cfg.patterns = {"a", "b", "c.*"};
    TimeSeriesSampler sampler(reg, cfg);
    sampler.sample(0);
    sampler.sample(50);
    return sampler.to_csv();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  // Sorted union of matching names (the gauge exports value + high-water).
  EXPECT_EQ(first.substr(0, first.find('\n')), "t_ps,a,b,c.depth,c.depth.hwm");
}

TEST(TimeSeries, HistogramPercentilesRideSnapshots) {
  Registry reg;
  Histogram& h = reg.histogram("lat_us", /*upper=*/200.0, /*buckets=*/400);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  TimeSeriesConfig cfg;
  cfg.patterns = {"lat_us.*"};
  TimeSeriesSampler sampler(reg, cfg);
  sampler.sample(0);
  const auto at = [&](const char* name) { return sampler.value(0, name); };
  // p50/p99/p999 exported by the registry as x1000 fixed-point.
  ASSERT_TRUE(at("lat_us.p50_x1000").has_value());
  ASSERT_TRUE(at("lat_us.p99_x1000").has_value());
  ASSERT_TRUE(at("lat_us.p999_x1000").has_value());
  EXPECT_NEAR(static_cast<double>(*at("lat_us.p50_x1000")) / 1000.0, 50.0,
              2.0);
  EXPECT_NEAR(static_cast<double>(*at("lat_us.p99_x1000")) / 1000.0, 99.0,
              2.0);
  EXPECT_GE(*at("lat_us.p999_x1000"), *at("lat_us.p99_x1000"));
  // Exact extremes ride along with the percentiles.
  ASSERT_TRUE(at("lat_us.min_x1000").has_value());
  ASSERT_TRUE(at("lat_us.max_x1000").has_value());
  EXPECT_EQ(at("lat_us.min_x1000"), 1000);
  EXPECT_EQ(at("lat_us.max_x1000"), 100000);
}

// The definition the columnar sampler must reproduce byte for byte: a full
// Registry::snapshot() per tick, filtered by glob, then one CSV column per
// name in the sorted union over all ticks, 0 before a name first appears.
class ReferenceSampler {
 public:
  ReferenceSampler(const Registry& registry,
                   std::vector<std::string> patterns)
      : registry_(registry), patterns_(std::move(patterns)) {}

  void sample(SimTime now) {
    std::map<std::string, std::int64_t> kept;
    for (const auto& [name, value] : registry_.snapshot().values) {
      bool keep = patterns_.empty();
      for (const std::string& pattern : patterns_) {
        keep = keep || glob_match(pattern, name);
      }
      if (keep) kept.emplace(name, value);
    }
    ticks_.emplace_back(now, std::move(kept));
  }

  std::string to_csv() const {
    std::set<std::string> names;
    for (const auto& [t, values] : ticks_) {
      for (const auto& [name, value] : values) names.insert(name);
    }
    std::string out = "t_ps";
    for (const std::string& name : names) out += "," + name;
    out += "\n";
    for (const auto& [t, values] : ticks_) {
      out += std::to_string(t);
      for (const std::string& name : names) {
        const auto it = values.find(name);
        out += "," + std::to_string(it == values.end() ? 0 : it->second);
      }
      out += "\n";
    }
    return out;
  }

 private:
  const Registry& registry_;
  std::vector<std::string> patterns_;
  std::vector<std::pair<SimTime, std::map<std::string, std::int64_t>>> ticks_;
};

class TimeSeriesDifferential
    : public ::testing::TestWithParam<std::vector<std::string>> {};

TEST_P(TimeSeriesDifferential, CsvMatchesPerTickSnapshots) {
  Registry reg;
  TimeSeriesConfig cfg;
  cfg.patterns = GetParam();
  TimeSeriesSampler sampler(reg, cfg);
  ReferenceSampler reference(reg, cfg.patterns);
  Rng rng(2024);
  const char* kPrefixes[] = {"link.sw", "hca.", "q.", "auth.fail."};
  for (int tick = 0; tick < 60; ++tick) {
    // Metrics are born between ticks, some kinds re-resolved, all moving.
    for (int op = 0; op < 6; ++op) {
      const std::string name =
          std::string(kPrefixes[rng.uniform(4)]) +
          std::to_string(rng.uniform(12)) +
          (rng.uniform(3) == 0 ? ".depth" : ".packets");
      switch (rng.uniform(4)) {
        case 0:
          reg.counter(name).inc(1 + rng.uniform(50));
          break;
        case 1:
          reg.gauge(name).set(rng.uniform_range(-20, 200));
          break;
        case 2:
          reg.time_accumulator(name).add(
              static_cast<SimTime>(rng.uniform(10'000)));
          break;
        default:
          reg.histogram(name, 100.0, 50).add(rng.uniform_double() * 120.0);
          break;
      }
    }
    // Two metrics that export the same key, born in both orders: the
    // counter "x.count" must win over time accumulator "x"'s ".count"
    // whichever was created first, exactly as in the snapshot.
    if (tick == 10) reg.time_accumulator("dup.a").add(5);
    if (tick == 20) reg.counter("dup.a.count").inc(900);
    if (tick == 12) reg.counter("dup.b.count").inc(700);
    if (tick == 25) reg.time_accumulator("dup.b").add(9);
    // A kind collision mid-run: obs.kind_collisions is born here.
    if (tick == 30) {
      reg.counter("q.collide").inc();
      reg.gauge("q.collide").set(3);
    }
    sampler.sample(tick * 1000);
    reference.sample(tick * 1000);
  }
  ASSERT_GT(reg.kind_collisions(), 1u);  // the random ops collide too
  EXPECT_EQ(sampler.to_csv(), reference.to_csv());
  EXPECT_NE(sampler.to_csv().find("dup.a.count"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, TimeSeriesDifferential,
    ::testing::Values(std::vector<std::string>{},
                      std::vector<std::string>{"link.*", "*.count", "q.*",
                                               "obs.*", "dup.*"}));

}  // namespace
}  // namespace ibsec::obs
