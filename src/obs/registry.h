// Fabric-wide observability: a hierarchical metrics registry.
//
// Every Simulator owns one Registry (no globals — sweep determinism across
// ThreadPool workers depends on per-instance state). Components resolve
// handles once, at construction, by hierarchical name
// ("switch.3.drop.pkey_mismatch", "link.sw2.out1.credit_stall",
// "auth.verify_fail.umac") and record through the handle with a single
// inlined integer add — no map lookup on the hot path. Two components
// resolving the same name share one metric, which is how fabric-wide
// aggregates (auth.*, sm.*, attack.*) fall out for free.
//
// Snapshots are flat, name-sorted, integer-valued maps: byte-identical
// JSON/CSV for identical (topology, seed) runs regardless of wall clock,
// worker count, or sweep ordering — the property the determinism
// regression tests pin down. How a metric flattens into exported integers
// (the suffix table on Snapshot) lives in one place, Registry::Column,
// which snapshot() and TimeSeriesSampler both read through. The registry
// also keeps its metrics in an append-only creation order, so a sampler
// can pick up just the metrics born since its last tick.
//
// The handles are the store: a component keeps the handles it resolved and
// reads its own counts back through them, so each exported count lives in
// exactly one place.
//
// Thread-safety: a Registry and every handle it hands out are deliberately
// NOT thread-safe — no atomics, no locks, by design: metrics record on the
// simulator hot path, and a Registry is owned by exactly one Simulator,
// which is single-threaded. Parallel sweeps give each worker its own
// Simulator (and thus Registry); workers must never record into or
// snapshot another worker's registry. The CI TSan lane runs the
// multi-worker sweep tests to keep that ownership rule honest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/time.h"

namespace ibsec::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// The count behind a handle resolved on first use: 0 while the handle is
/// still null, so a read never creates the counter or its snapshot entry.
inline std::uint64_t value_or_zero(const Counter* counter) {
  return counter != nullptr ? counter->value() : 0;
}

/// Instantaneous level (queue depth, table size); tracks its high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  std::int64_t value() const { return value_; }
  std::int64_t high_water() const { return high_water_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

/// Accumulates simulated-time durations (credit stalls, SIF armed time).
class TimeAccumulator {
 public:
  void add(SimTime duration) {
    total_ += duration;
    ++count_;
  }
  SimTime total() const { return total_; }
  std::uint64_t count() const { return count_; }

 private:
  SimTime total_ = 0;
  std::uint64_t count_ = 0;
};

/// A point-in-time copy of every exported metric, flattened to integers:
///   counter           -> "<name>"
///   gauge             -> "<name>", "<name>.hwm"
///   time accumulator  -> "<name>.total_ps", "<name>.count"
///   histogram         -> "<name>.count", "<name>.overflow",
///                        "<name>.p50_x1000", "<name>.p99_x1000",
///                        "<name>.p999_x1000", "<name>.min_x1000",
///                        "<name>.max_x1000"
struct Snapshot {
  std::map<std::string, std::int64_t> values;

  bool operator==(const Snapshot&) const = default;

  /// Value by exact name; 0 when absent.
  std::int64_t at(const std::string& name) const;
  bool contains(const std::string& name) const {
    return values.count(name) != 0;
  }

  /// Sum of every entry whose name matches `pattern` ('*' matches any run
  /// of characters, may appear multiple times).
  std::int64_t sum_matching(std::string_view pattern) const;

  /// Flat JSON object, keys sorted, integer values only — byte-stable.
  std::string to_json() const;
  /// "name,value" rows with a header line, keys sorted.
  std::string to_csv() const;
};

/// Does `name` match `pattern` under the Snapshot wildcard rules? Exposed
/// for tests and ad-hoc filtering.
bool glob_match(std::string_view pattern, std::string_view name);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve-or-create by name. Resolving an existing name with the same
  /// kind returns the same object; with a *different* kind it returns a
  /// sink (the original keeps its data) and the mismatch is exported as
  /// "obs.kind_collisions".
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  TimeAccumulator& time_accumulator(const std::string& name);
  /// Histogram spec (upper, buckets) is fixed by the first resolution.
  Histogram& histogram(const std::string& name, double upper, int buckets);

  /// Number of registered (exported) metrics.
  std::size_t size() const { return metrics_.size(); }
  std::uint64_t kind_collisions() const { return kind_collisions_; }

  Snapshot snapshot() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kTime, kHistogram };
  struct Metric;
  /// A metrics_ entry: a name and the metric it owns.
  using Entry = std::pair<const std::string, std::unique_ptr<Metric>>;

 public:
  /// One exported integer: the Snapshot key it appears under and how to
  /// read it. Valid for the registry's lifetime — metrics never move or die
  /// once created.
  struct Column {
    std::string name;               ///< exported name, suffix included
    std::string_view metric_name;   ///< source metric ("" for collisions)
    const Metric* metric = nullptr; ///< nullptr for obs.kind_collisions
    std::int64_t (*read)(const Metric&) = nullptr;
  };

  /// Where a reader of new_columns() has got to.
  struct ColumnCursor {
    const Entry* last = nullptr;  ///< newest metric seen
    bool collisions = false;      ///< obs.kind_collisions seen
  };

  /// Appends the columns born since `cursor` and advances it: those of
  /// every metric created after it, in creation order, then
  /// obs.kind_collisions once the first kind collision has happened. Each
  /// metric's columns follow the Snapshot suffix order.
  void new_columns(ColumnCursor& cursor, std::vector<Column>& out) const;

  /// The column's current value, as snapshot() would export it.
  std::int64_t value(const Column& column) const;

 private:
  struct Metric {
    explicit Metric(Kind k) : kind(k) {}
    Kind kind;
    Counter counter;
    Gauge gauge;
    TimeAccumulator time;
    std::unique_ptr<Histogram> hist;
    const Entry* next = nullptr;  ///< the next metric created
  };

  /// nullptr when the name exists with a different kind.
  Metric* resolve(const std::string& name, Kind kind);
  /// Calls fn(Column&&) for each of the entry's exported columns, in
  /// suffix order — the one copy of the suffix table.
  template <class Fn>
  static void for_each_column(const Entry& entry, Fn&& fn);
  static Column kind_collisions_column();

  std::map<std::string, std::unique_ptr<Metric>> metrics_;
  // Creation order, threaded through the metrics themselves: append-only,
  // and no allocation beyond the metric's own.
  const Entry* first_created_ = nullptr;
  Metric* last_created_ = nullptr;
  std::uint64_t kind_collisions_ = 0;

  // Sinks absorb records from kind collisions; they are never exported.
  Counter sink_counter_;
  Gauge sink_gauge_;
  TimeAccumulator sink_time_;
  Histogram sink_hist_{1.0, 1};
};

}  // namespace ibsec::obs
