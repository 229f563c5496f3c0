// The bodies that run inside a ledger child process. Each child builds one
// Scenario, measures it, checks its outputs and prints a flat record — one
// "key value" pair per line — on stdout for the parent to collect. Peak RSS
// is not in the record: the parent reads it from the child's rusage.
#pragma once

#include <string>

#include "workloads.h"

namespace ledger {

/// Sets up and runs `workload`, checks its outputs and writes the record to
/// stdout. Untraced, it yields the end-to-end numbers. Traced, the run goes
/// through the span proxies, the stage benches follow, and the stored spans
/// are written as Chrome trace JSON to `spans_path` when it is non-empty.
/// Returns the process exit code.
int run_child(const Workload& workload, bool traced, bool quick,
              const std::string& spans_path);

}  // namespace ledger
