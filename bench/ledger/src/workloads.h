// The ledger's four workloads: the ROADMAP's end-to-end macros, each an
// open-loop traffic mix inside one simulation. A workload is a pure
// function of (name, seed, quick): the seed feeds ScenarioConfig::seed and
// the attack-campaign seed, nothing else.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload/scenario.h"

namespace ledger {

struct Workload {
  std::string name;
  ibsec::workload::ScenarioConfig config;

  // Shape handed to the stage benches, so each bench drives its component
  // the way this workload does.
  std::size_t payload_bytes = 1024;   ///< dominant data-packet payload
  std::size_t filter_table_size = 0;  ///< P_Keys per filtering port
  int keys_per_node = 1;              ///< partition secrets each CA holds
};

/// Names in the order the full ledger runs them.
const std::vector<std::string>& workload_names();

/// One line on why the workload exists (BENCHMARK.json and --list).
std::string_view workload_why(std::string_view name);

/// Scenarios (K) one benchmark run covers. Host noise and the seed's own
/// effect on the amount of work (where attackers sit, which nodes share a
/// partition, how long RSA key generation searches) average out over them;
/// K is sized so one pass takes about kRunSeconds on a 2.1 GHz x86 core.
int seeds_per_run(std::string_view name);

/// The workload for `seed`; `quick` divides the simulated window by 10.
/// nullopt for an unknown name.
std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed, bool quick);

}  // namespace ledger
