// Topology generality: the mesh builder and XY routing at sizes beyond the
// paper's 4x4 — rectangular, linear, degenerate, and large meshes — plus
// full scenarios on non-default topologies.
#include <gtest/gtest.h>

#include "workload/scenario.h"
#include "switch_totals.h"

namespace ibsec::fabric {
namespace {

ib::Packet probe_packet(Fabric& fabric, int src, int dst) {
  ib::Packet pkt;
  pkt.lrh.vl = kBestEffortVl;
  pkt.lrh.slid = fabric.lid_of_node(src);
  pkt.lrh.dlid = fabric.lid_of_node(dst);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.pkey = ib::kDefaultPKey;
  pkt.deth = ib::Deth{1, 2};
  pkt.payload.assign(64, 0x42);
  pkt.meta.src_node = static_cast<std::uint32_t>(src);
  pkt.meta.dst_node = static_cast<std::uint32_t>(dst);
  pkt.finalize();
  return pkt;
}

class MeshSizeSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MeshSizeSweep, AllPairsReachable) {
  const auto [w, h] = GetParam();
  FabricConfig cfg;
  cfg.mesh_width = w;
  cfg.mesh_height = h;
  Fabric fabric(cfg);
  const int n = fabric.node_count();

  std::vector<int> received(static_cast<std::size_t>(n), 0);
  for (int node = 0; node < n; ++node) {
    fabric.hca(node).set_receive_callback(
        [&received, node](ib::Packet&& pkt) {
          ++received[static_cast<std::size_t>(node)];
          EXPECT_EQ(static_cast<int>(pkt.meta.dst_node), node);
        });
  }
  int sent = 0;
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      fabric.hca(src).send(probe_packet(fabric, src, dst));
      ++sent;
    }
  }
  fabric.simulator().run();
  int total = 0;
  for (int r : received) total += r;
  EXPECT_EQ(total, sent);
  EXPECT_EQ(switch_total(fabric, &Switch::ObsHandles::drop_no_route), 0u);
  EXPECT_EQ(switch_total(fabric, &Switch::ObsHandles::drop_vcrc), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MeshSizeSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{1, 4}, std::pair{8, 1},
                                           std::pair{2, 2}, std::pair{4, 4},
                                           std::pair{8, 2}, std::pair{5, 3},
                                           std::pair{8, 8}));

TEST(Topology, SelfAddressedPacketsAreNotHairpinned) {
  // Fabric loopback is not a service: a self-addressed packet would have to
  // leave the switch on the port it arrived on, which the routing-loop
  // guard rejects. (Real HCAs loop such traffic back internally without
  // touching the link.)
  FabricConfig cfg;
  cfg.mesh_width = 1;
  cfg.mesh_height = 1;
  Fabric fabric(cfg);
  EXPECT_EQ(fabric.node_count(), 1);
  int received = 0;
  fabric.hca(0).set_receive_callback([&](ib::Packet&&) { ++received; });
  fabric.hca(0).send(probe_packet(fabric, 0, 0));
  fabric.simulator().run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(switch_total(fabric, &Switch::ObsHandles::drop_no_route), 1u);
}

TEST(Topology, DlidPastTheRouteTableIsNoRoute) {
  // Route tables hold one entry per assigned LID (1..n), not the whole LID
  // space: a DLID past the table is an unknown destination, dropped like any
  // other, not an out-of-range lookup.
  FabricConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 1;
  Fabric fabric(cfg);
  int received = 0;
  for (int node = 0; node < fabric.node_count(); ++node) {
    fabric.hca(node).set_receive_callback(
        [&](ib::Packet&&) { ++received; });
  }
  const auto past_table = static_cast<ib::Lid>(fabric.node_count() + 1);
  for (const ib::Lid dlid : {past_table, ib::Lid{0xBFFF}}) {
    ib::Packet pkt = probe_packet(fabric, 0, 1);
    pkt.lrh.dlid = dlid;
    pkt.finalize();
    fabric.hca(0).send(std::move(pkt));
  }
  EXPECT_NO_THROW(fabric.simulator().run());
  EXPECT_EQ(received, 0);
  EXPECT_EQ(fabric.ingress_switch_of(0).obs().drop_no_route->value(), 2u);
  EXPECT_EQ(switch_total(fabric, &Switch::ObsHandles::drop_no_route), 2u);
}

TEST(Topology, ScenarioRunsOnLargeMesh) {
  workload::ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.fabric.mesh_width = 8;
  cfg.fabric.mesh_height = 8;  // 64 nodes
  cfg.num_partitions = 8;
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.3;
  cfg.num_attackers = 4;
  cfg.fabric.filter_mode = FilterMode::kSif;
  cfg.duration = 300 * time_literals::kMicrosecond;
  cfg.warmup = 50 * time_literals::kMicrosecond;
  workload::Scenario scenario(cfg);
  const auto r = scenario.run();
  EXPECT_GT(r.delivered, 100u);
  EXPECT_GT(r.attack_packets, 0u);
  EXPECT_GT(r.sif_installs, 0u);
}

TEST(Topology, ScenarioRunsOnLinearArray) {
  workload::ScenarioConfig cfg;
  cfg.seed = 4;
  cfg.fabric.mesh_width = 8;
  cfg.fabric.mesh_height = 1;
  cfg.num_partitions = 2;
  cfg.enable_realtime = false;
  cfg.best_effort_load = 0.3;
  cfg.duration = 300 * time_literals::kMicrosecond;
  workload::Scenario scenario(cfg);
  const auto r = scenario.run();
  EXPECT_GT(r.delivered, 50u);
  // Linear arrays funnel everything through center links; utilization
  // should reflect that without exceeding capacity.
  EXPECT_LE(scenario.fabric().max_link_utilization(), 1.0);
}

TEST(Topology, LidMappingBijective) {
  FabricConfig cfg;
  cfg.mesh_width = 5;
  cfg.mesh_height = 3;
  Fabric fabric(cfg);
  for (int node = 0; node < fabric.node_count(); ++node) {
    EXPECT_EQ(fabric.node_of_lid(fabric.lid_of_node(node)), node);
    EXPECT_NE(fabric.lid_of_node(node), 0);  // LID 0 reserved
  }
}

}  // namespace
}  // namespace ibsec::fabric
