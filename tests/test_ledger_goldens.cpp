// Ledger workloads as goldens: the four end-to-end scenarios the cost
// ledger (bench/ledger) measures, each built exactly as the ledger builds
// it, with the export digest `ledger --quick --seed 2005` prints. A change
// that keeps every other golden but moves one of these changed what the
// benchmark simulates, so its timings would no longer compare with the
// parent's.
//
// Beside each digest sit two work counters, pure functions of (config,
// seed) like the digest: the events the run executes and the packets its
// links carry. The link packets must not move; the events move only with a
// change to how the simulator schedules work, and a change that puts back
// an event per credit return fails here by name.
//
// The allocation budget holds the run's heap traffic below one allocation
// per ten link packets on the two packet-bound workloads: a packet's bytes
// come from the Simulator's packet pool, so only growth and per-message
// state (the RC window's map nodes, exports) reach the heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "common/alloc_probe.h"
#include "common/hex.h"
#include "crypto/sha256.h"
#include "workloads.h"

namespace {

using ibsec::workload::Scenario;
using ibsec::workload::ScenarioResult;

/// The ledger's export digest (bench/ledger/src/probe.cpp): SHA-256 over
/// every export, each followed by a 0x1e separator.
std::string export_digest(const ScenarioResult& r) {
  ibsec::crypto::Sha256 h;
  const auto feed = [&h](const std::string& part) {
    h.update({reinterpret_cast<const std::uint8_t*>(part.data()), part.size()});
    h.update({reinterpret_cast<const std::uint8_t*>("\x1e"), 1});
  };
  feed(r.obs.to_json());
  feed(r.trace_json);
  feed(r.trace_breakdown_csv);
  feed(r.timeseries_csv);
  feed(r.audit_jsonl);
  return ibsec::to_hex(h.finalize());
}

struct Golden {
  const char* workload;
  const char* digest;
  std::uint64_t events;        ///< events run by scenario.run()
  std::uint64_t link_packets;  ///< Σ link.*.packets
};

// Names the parameter in ctest ids, instead of its pointer bytes.
void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.workload; }

class LedgerGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(LedgerGolden, QuickSeed2005ExportDigest) {
  const Golden& golden = GetParam();
  const auto w = ledger::make_workload(golden.workload, 2005, /*quick=*/true);
  ASSERT_TRUE(w.has_value()) << golden.workload;
  // As the ledger's child: construct, drain bring-up, then run.
  Scenario scenario(w->config);
  ibsec::sim::Simulator& sim = scenario.fabric().simulator();
  sim.run();
  const std::uint64_t events0 = sim.events_processed();
  const ScenarioResult r = scenario.run();
  EXPECT_EQ(export_digest(r), golden.digest)
      << golden.workload << " exports drifted";
  EXPECT_EQ(sim.events_processed() - events0, golden.events)
      << golden.workload << " events run";
  EXPECT_EQ(r.obs.sum_matching("link.*.packets"),
            static_cast<std::int64_t>(golden.link_packets))
      << golden.workload << " link packets";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LedgerGolden,
    ::testing::Values(
        Golden{"mesh_dos",
               "4e023b58d7e549fe54209152d5e39422a8a923657d20d31012c128dcca09b072",
               /*events=*/754'229, /*link_packets=*/244'063},
        Golden{"fattree_mpi",
               "6683327266f269690a1985e0f0130ac24816cb1f2c0af659ae0c9ef77800d279",
               /*events=*/819'650, /*link_packets=*/278'828},
        Golden{"tenant2048",
               "bf8f9fa2c308039c962dd7d327c96b946050406432c1b9f529238e80b816b99f",
               /*events=*/287'417, /*link_packets=*/108'164},
        Golden{"campaign_obs",
               "22417875a8bdca51902db4f634c0519af8e19e3f73fe157a29c62af154ff43dc",
               /*events=*/53'268, /*link_packets=*/16'243}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.workload);
    });

class LedgerAllocBudget : public ::testing::TestWithParam<const char*> {};

TEST_P(LedgerAllocBudget, RunAllocatesUnderOnePerTenLinkPackets) {
  const char* workload = GetParam();
  const auto w = ledger::make_workload(workload, 2005, /*quick=*/true);
  ASSERT_TRUE(w.has_value()) << workload;
  Scenario scenario(w->config);
  scenario.fabric().simulator().run();
  const std::uint64_t before = ibsec::alloc_count();
  const ScenarioResult r = scenario.run();
  const std::uint64_t allocs = ibsec::alloc_count() - before;
  const auto link_packets =
      static_cast<std::uint64_t>(r.obs.sum_matching("link.*.packets"));
  ASSERT_GT(link_packets, 0u) << workload;
  EXPECT_LT(allocs * 10, link_packets)
      << workload << ": scenario.run() made " << allocs
      << " allocations for " << link_packets << " link packets";
}

INSTANTIATE_TEST_SUITE_P(Workloads, LedgerAllocBudget,
                         ::testing::Values("mesh_dos", "tenant2048"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
