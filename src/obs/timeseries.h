// Fixed-Δt time-series telemetry over the metrics registry.
//
// A TimeSeriesSampler records a selected subset of one Registry's exported
// metrics into time-stamped buckets, so experiments can see *when* a
// metric moved — queue depth ramping under the Fig. 1 DoS burst, filter
// drops spiking when SIF arms, rc.retransmits stepping on each loss — not
// just its end-of-run total.
//
// Selection uses the Snapshot glob syntax ('*' wildcards) against exported
// metric names; an empty pattern list keeps everything. Sampling is driven
// by the owner (workload::Scenario schedules a simulator event every
// `timeseries_dt`), which keeps obs free of any dependency on sim.
//
// Storage is columnar. The sampler keeps a cursor into the registry's
// append-only creation order; on each tick it first takes the columns of
// metrics born since the last tick (Registry::new_columns, the same suffix
// table snapshot() uses), glob-matches each exported name once and keeps
// the matches. The tick then appends one int64 per kept column to a flat
// row store. Column sets only grow, so a row is a prefix of the columns
// known at its tick: a tick costs one integer read per kept column, with
// no per-tick name handling and no allocation beyond the store's growth.
//
// The CSV export is byte-deterministic and equals what per-tick snapshots
// would give: one row per bucket in time order, one column per exported
// name in sorted order, and 0 for the buckets before a column was born.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/registry.h"

namespace ibsec::obs {

struct TimeSeriesConfig {
  /// Bucket spacing; informational here (the owner schedules the ticks).
  SimTime dt = 0;
  /// Snapshot-name globs to keep; empty keeps every exported metric.
  std::vector<std::string> patterns;
  /// Hard bound on stored buckets; further samples count as dropped.
  std::size_t max_samples = 1u << 16;
};

class TimeSeriesSampler {
 public:
  TimeSeriesSampler(const Registry& registry, TimeSeriesConfig config)
      : registry_(registry), config_(std::move(config)) {}
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Appends one bucket stamped `now` (no-op past max_samples).
  void sample(SimTime now);

  const TimeSeriesConfig& config() const { return config_; }
  std::uint64_t dropped_samples() const { return dropped_; }

  /// Stored buckets.
  std::size_t rows() const { return rows_.size(); }
  /// Timestamp of bucket `row`.
  SimTime row_time(std::size_t row) const { return rows_.at(row).t; }
  /// Columns kept so far (matched exported names, born in any bucket).
  std::size_t columns() const { return columns_.size(); }
  /// Bucket `row`'s value of exported name `name`; nullopt when no kept
  /// column of that name existed yet at that bucket.
  std::optional<std::int64_t> value(std::size_t row,
                                    std::string_view name) const;

  /// "t_ps,<name>,..." header + one integer row per bucket; byte-stable.
  std::string to_csv() const;

 private:
  struct Row {
    SimTime t = 0;
    std::size_t begin = 0;  ///< first value in values_
    std::size_t width = 0;  ///< columns_ known at this tick
  };

  /// Keeps the matching registry columns born since the last tick.
  void discover();
  /// Snapshot's precedence among columns exporting the same name.
  bool outranks(std::size_t a, std::size_t b) const;

  const Registry& registry_;
  TimeSeriesConfig config_;
  Registry::ColumnCursor cursor_;
  std::vector<Registry::Column> columns_;
  std::vector<Row> rows_;
  std::vector<std::int64_t> values_;  ///< rows back to back, row-major
  std::uint64_t dropped_ = 0;
};

}  // namespace ibsec::obs
