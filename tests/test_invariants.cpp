// Packet-conservation invariants over the observability layer.
//
// Every packet an HCA injects must be accounted for exactly once when the
// fabric drains: dropped by a switch (with a cause) or retired by the
// destination CA (with a cause). The invariant is checked fabric-wide and
// per node for every scenario variant — baseline, DoS flood, and each
// defense (IF / SIF / DPT / rate limiting / authentication). A leak in any
// counter, a double-count, or a silently-dropped packet path breaks the
// equality. The mesh runs every variant; a fat-tree repeats the baseline and
// the lossy-link case off the mesh.
#include <gtest/gtest.h>

#include <string>

#include "workload/scenario.h"

namespace ibsec::workload {
namespace {

using time_literals::kMicrosecond;

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.warmup = 50 * kMicrosecond;
  cfg.duration = 400 * kMicrosecond;
  return cfg;
}

ScenarioConfig fattree_config() {
  ScenarioConfig cfg = base_config();
  cfg.fabric.topology = *fabric::TopologySpec::parse("fattree:k=4");
  return cfg;
}

/// Runs the scenario, then drains every in-flight packet (sources and
/// attackers are stopped, so the event queue empties) and snapshots. A
/// drained fabric holds no packet: every slot of the Simulator's packet
/// pool is back, whatever path (delivery, switch drop, wire drop, flap)
/// retired its packet. That holds because every topology's routes have an
/// acyclic channel dependency graph (test_topology_gen), so no credit loop
/// can park packets for good.
obs::Snapshot run_and_drain(Scenario& scenario) {
  scenario.run();
  sim::Simulator& sim = scenario.fabric().simulator();
  sim.run();
  EXPECT_EQ(sim.packets().in_use(), 0u) << "packets parked after the drain";
  return sim.obs().snapshot();
}

void expect_conservation(const obs::Snapshot& snap, int nodes) {
  const std::int64_t injected = snap.sum_matching("hca.*.injected");
  const std::int64_t switch_drops = snap.sum_matching("switch.*.drop.*");
  const std::int64_t link_drops =
      snap.sum_matching("link.*.faults.dropped") +
      snap.sum_matching("link.*.faults.flap_dropped");
  const std::int64_t received = snap.sum_matching("hca.*.received");
  const std::int64_t retired = snap.sum_matching("ca.*.retired.*");

  EXPECT_GT(injected, 0);
  // Fabric-wide: injected packets either died in a switch, were lost on a
  // faulty link, or reached an HCA.
  EXPECT_EQ(injected, switch_drops + link_drops + received);
  // Every packet an HCA handed up was retired by its CA exactly once.
  EXPECT_EQ(received, retired);
  // Per node: the CA retire causes partition the HCA's receive count.
  for (int n = 0; n < nodes; ++n) {
    const std::string id = std::to_string(n);
    EXPECT_EQ(snap.at("hca." + id + ".received"),
              snap.sum_matching("ca." + id + ".retired.*"))
        << "node " << n;
  }
}

void expect_baseline(const ScenarioConfig& cfg) {
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  EXPECT_EQ(snap.at("attack.packets_injected"), 0);
  EXPECT_EQ(snap.sum_matching("switch.*.drop.pkey_mismatch"), 0);
  EXPECT_EQ(snap.sum_matching("ca.*.retired.pkey_violation"), 0);
  EXPECT_EQ(snap.sum_matching("switch.*.filter.sif.activations"), 0);
  EXPECT_GT(snap.sum_matching("ca.*.retired.delivered"), 0);
}

TEST(Conservation, Baseline) { expect_baseline(base_config()); }

TEST(Conservation, FatTreeBaseline) { expect_baseline(fattree_config()); }

TEST(Conservation, DosFloodNoFiltering) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  EXPECT_GT(snap.at("attack.packets_injected"), 0);
  // No switch enforcement: every flood packet crosses the fabric and dies
  // at the destination CA's partition check, trapping to the SM.
  EXPECT_EQ(snap.sum_matching("switch.*.drop.pkey_mismatch"), 0);
  EXPECT_GT(snap.sum_matching("ca.*.retired.pkey_violation"), 0);
  EXPECT_GT(snap.at("sm.traps_received"), 0);
  EXPECT_EQ(snap.sum_matching("switch.*.filter.sif.activations"), 0);
}

TEST(Conservation, IngressFiltering) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = fabric::FilterMode::kIf;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  // IF kills the flood at the attacker's ingress port: nothing reaches an
  // end node with a bad P_Key and SIF never arms.
  EXPECT_GT(snap.sum_matching("switch.*.drop.pkey_mismatch"), 0);
  EXPECT_EQ(snap.sum_matching("ca.*.retired.pkey_violation"), 0);
  EXPECT_EQ(snap.sum_matching("switch.*.filter.sif.activations"), 0);
}

TEST(Conservation, StatefulIngressFiltering) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  // The SIF control loop: early packets leak to victims, victims trap, the
  // SM arms the ingress filter, later packets drop at the switch.
  EXPECT_GT(snap.sum_matching("ca.*.retired.pkey_violation"), 0);
  EXPECT_GT(snap.at("sm.traps_received"), 0);
  EXPECT_GT(snap.at("sm.sif_installs"), 0);
  EXPECT_GT(snap.sum_matching("switch.*.filter.sif.activations"), 0);
  EXPECT_GT(snap.sum_matching("switch.*.drop.pkey_mismatch"), 0);
}

TEST(Conservation, DistributedPartitionTables) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = fabric::FilterMode::kDpt;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  EXPECT_GT(snap.sum_matching("switch.*.drop.pkey_mismatch"), 0);
  EXPECT_EQ(snap.sum_matching("ca.*.retired.pkey_violation"), 0);
}

TEST(Conservation, ValidPkeyFloodWithRateLimit) {
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  cfg.attack_with_valid_pkey = true;
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  cfg.fabric.ingress_rate_limit_fraction = 0.3;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  // Valid P_Keys sail through every partition filter; only admission
  // control bites, and no receiver ever traps.
  EXPECT_GT(snap.sum_matching("switch.*.drop.rate_limited"), 0);
  EXPECT_EQ(snap.sum_matching("switch.*.drop.pkey_mismatch"), 0);
  EXPECT_EQ(snap.at("sm.traps_received"), 0);
}

TEST(Conservation, AuthenticatedPartitionKeys) {
  ScenarioConfig cfg = base_config();
  cfg.key_management = KeyManagement::kPartitionLevel;
  cfg.auth_enabled = true;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  EXPECT_GT(snap.at("auth.signed"), 0);
  EXPECT_GT(snap.at("auth.verify_ok"), 0);
  EXPECT_GT(snap.at("sm.secrets_distributed"), 0);
  EXPECT_GT(snap.sum_matching("ca.*.retired.delivered"), 0);
}

TEST(Conservation, AuthenticatedQpKeysWithReplayProtection) {
  ScenarioConfig cfg = base_config();
  cfg.key_management = KeyManagement::kQpLevel;
  cfg.auth_enabled = true;
  cfg.replay_protection = true;
  cfg.num_attackers = 1;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  EXPECT_GT(snap.at("auth.signed"), 0);
  EXPECT_GT(snap.at("auth.verify_ok"), 0);
}

// Random link drops plus the RC reliability protocol: retransmissions, ACKs
// and NAKs are all extra packets, and the loss itself is a new drop cause —
// conservation must still balance to the packet.
void expect_faulty_links_balance(ScenarioConfig cfg) {
  cfg.fabric.fault_campaign =
      *fabric::FaultCampaign::parse("seed=5;drop=0.02");
  cfg.rc.enabled = true;
  cfg.enable_rc_messages = true;
  cfg.rc_load = 0.15;
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  EXPECT_GT(snap.sum_matching("link.*.faults.dropped"), 0);
  EXPECT_GT(snap.sum_matching("ca.*.rc.retransmits"), 0);
  EXPECT_GT(snap.sum_matching("ca.*.rc.acks"), 0);
  EXPECT_GT(snap.sum_matching("ca.*.retired.delivered"), 0);
}

TEST(Conservation, FaultyLinksWithRcReliability) {
  expect_faulty_links_balance(base_config());
}

TEST(Conservation, FatTreeFaultyLinksWithRcReliability) {
  expect_faulty_links_balance(fattree_config());
}

TEST(Conservation, DeadSwitch) {
  // A dead switch blackholes everything that reaches it, including its own
  // HCA's traffic; those deaths are a counted switch drop cause.
  ScenarioConfig cfg = base_config();
  cfg.fabric.fault_campaign = *fabric::FaultCampaign::parse("dead-switch=5");
  Scenario scenario(cfg);
  const obs::Snapshot snap = run_and_drain(scenario);
  expect_conservation(snap, scenario.fabric().node_count());

  EXPECT_GT(snap.at("switch.5.drop.dead"), 0);
}

TEST(Conservation, QkeyDropSurfacedPerQp) {
  // The per-QP dropped_bad_qkey counter must agree with the CA-level
  // retire cause and with what the CA's per-QP accessor reads back.
  ScenarioConfig cfg = base_config();
  cfg.enable_realtime = false;
  cfg.enable_best_effort = false;
  Scenario scenario(cfg);

  // Two distinct non-SM nodes in the same partition.
  const auto& part = scenario.partition_of_node();
  int src = -1, dst = -1;
  for (std::size_t i = 1; i < part.size() && src < 0; ++i) {
    for (std::size_t j = i + 1; j < part.size(); ++j) {
      if (part[i] == part[j]) {
        src = static_cast<int>(i);
        dst = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(src, 1);
  const ib::PKeyValue pkey = scenario.pkey_of_partition(part[
      static_cast<std::size_t>(src)]);
  auto& sqp = scenario.ca(src).create_qp(
      transport::ServiceType::kUnreliableDatagram, pkey);
  auto& dqp = scenario.ca(dst).create_qp(
      transport::ServiceType::kUnreliableDatagram, pkey);
  const ib::Qpn src_qpn = sqp.qpn;
  const ib::Qpn dst_qpn = dqp.qpn;
  const ib::QKeyValue good = dqp.qkey;

  for (int k = 0; k < 5; ++k) {
    scenario.ca(src).post_send(src_qpn, {1, 2, 3},
                               ib::PacketMeta::TrafficClass::kBestEffort, dst,
                               dst_qpn, good ^ 0xBAD);  // wrong Q_Key
  }
  scenario.ca(src).post_send(src_qpn, {4, 5, 6},
                             ib::PacketMeta::TrafficClass::kBestEffort, dst,
                             dst_qpn, good);
  scenario.fabric().simulator().run();
  const obs::Snapshot snap = scenario.fabric().simulator().obs().snapshot();

  const std::string per_qp = "ca." + std::to_string(dst) + ".qp." +
                             std::to_string(dst_qpn) + ".dropped_bad_qkey";
  EXPECT_EQ(snap.at(per_qp), 5);
  EXPECT_EQ(snap.sum_matching("ca.*.qp.*.dropped_bad_qkey"),
            snap.sum_matching("ca.*.retired.qkey_violation"));
  EXPECT_EQ(static_cast<std::int64_t>(scenario.ca(dst).qkey_drops(dst_qpn)),
            snap.at(per_qp));
  expect_conservation(snap, scenario.fabric().node_count());
}

TEST(Conservation, SnapshotAgreesWithLegacyCounters) {
  // The registry view and the pre-existing struct counters must describe
  // the same events.
  ScenarioConfig cfg = base_config();
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = fabric::FilterMode::kSif;
  Scenario scenario(cfg);
  const ScenarioResult result = scenario.run();

  EXPECT_EQ(result.obs.at("attack.packets_injected"),
            static_cast<std::int64_t>(result.attack_packets));
  EXPECT_EQ(result.obs.at("sm.traps_received"),
            static_cast<std::int64_t>(result.sm_traps_received));
  EXPECT_EQ(result.obs.at("sm.sif_installs"),
            static_cast<std::int64_t>(result.sif_installs));
  EXPECT_EQ(result.obs.sum_matching("switch.*.filter.drops"),
            static_cast<std::int64_t>(result.switch_filter_drops));
  EXPECT_EQ(result.obs.sum_matching("switch.*.forwarded"),
            static_cast<std::int64_t>(result.forwarded));
  EXPECT_EQ(result.obs.at("workload.realtime.delivered"),
            static_cast<std::int64_t>(result.realtime.total_us.count()));
}

}  // namespace
}  // namespace ibsec::workload
