// Stage benches: each drives one real component with the workload's shape
// (packet size, MAC algorithm, key count, filter mode and table size, sink
// state) and measures host ns per call. Multiplied by the call count the
// workload's registry recorded, a stage's cost becomes an estimated share
// of Scenario::run() host time; the ranked table of those shares is the
// ledger's per-stage breakdown.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace ledger {

/// The ranked stages, in the order run_stage_benches reports them.
inline constexpr const char* kStageNames[] = {
    "sim.event",           "fabric.vl_arbiter.pick", "ib.vcrc",
    "fabric.switch.hop",   "fabric.filter.check",    "security.auth.sign",
    "security.auth.verify", "transport.ud.post",     "transport.rc.ack",
    "obs.trace.span",      "obs.audit.emit",         "obs.timeseries.sample",
    "obs.export",
};

struct StageCost {
  std::string name;
  double ns_per_call = 0;
  double calls = 0;  ///< from the workload's registry (estimates noted)
};

/// What the traced child knows about the finished run.
struct RunFacts {
  ibsec::workload::Scenario* scenario = nullptr;  ///< after run(), not drained
  const ibsec::obs::Snapshot* snap = nullptr;     ///< ScenarioResult::obs
  double run_events = 0;
  double timeseries_samples = 0;
};

struct StageResults {
  std::vector<StageCost> stages;
  /// Per-layer bench metrics (name, value), e.g. {"ib.vcrc_ns", 212.0}.
  std::vector<std::pair<std::string, double>> metrics;
};

StageResults run_stage_benches(const Workload& workload, const RunFacts& run,
                               bool quick);

/// Median of `v`; 0 when empty.
double median(std::vector<double> v);

}  // namespace ledger
