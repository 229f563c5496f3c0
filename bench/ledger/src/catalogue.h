// The ledger's metric catalogue: every metric it reports, with unit, layer,
// direction, and — for per-layer metrics — the end-to-end metric and
// workload it should move. BENCHMARK.json is generated from this table, so
// the file and the program cannot disagree on names or units.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace ledger {

struct Metric {
  std::string name;
  std::string unit;
  std::string layer;    ///< "end_to_end", or the simulator layer measured
  bool lower_is_better = true;
  /// Listed in BENCHMARK.json. error_rate is not: it reads 0 when the
  /// program is correct, and the benchmark file admits only non-zero
  /// metrics; it is reported through the result's failed/attempted.
  bool in_benchmark_file = true;
  std::string moves;    ///< "run_s on mesh_dos", ...
};

const std::vector<Metric>& metric_catalogue();
const Metric* find_metric(const std::string& name);

/// Seconds one benchmark run measures for (BENCHMARK.json run_seconds).
inline constexpr int kRunSeconds = 15;
/// The loosest end-to-end bound the benchmark file admits.
inline constexpr double kMaxBound = 0.25;

/// BENCHMARK.json for the catalogue; `bounds` holds the regression bound
/// (share of the median) of every end-to-end metric the file lists.
std::string benchmark_json(const std::map<std::string, double>& bounds);

/// Minimal JSON string escaping for names, units and spec strings.
std::string json_string(const std::string& s);

}  // namespace ledger
