// Hot-path allocation pass (rule "hot-alloc").
//
// A function annotated with IBSEC_HOT (common/annotations.h) declares it runs
// on the per-event / per-packet path, where the zero-allocation contract
// (verified dynamically by common/alloc_probe.h and the zero-allocation
// tests in tests/test_hot_path.cpp) applies. This pass enforces the contract
// statically inside the annotated body:
//
//   new / make_unique / make_shared          direct heap allocation
//   std::function                            type-erasure heap allocation
//   std::deque/list/map/set construction     node-based containers allocate
//                                            per element
//   push_back / emplace_back                 growth reallocation, unless the
//                                            region also calls reserve()
//   std::string use, "lit" + x concatenation,
//   std::to_string                           string temporaries
//
// Intentional amortized allocations (pool growth, lazy one-time metric
// registration) are waived with a hot-alloc waiver and a justification;
// the unused-allow pass keeps those waivers honest.
#pragma once

#include <vector>

#include "analysis_model.h"
#include "detlint.h"

namespace ibsec::detlint {

void run_hotpath_pass(const FileModel& fm, std::vector<Finding>& findings);

}  // namespace ibsec::detlint
