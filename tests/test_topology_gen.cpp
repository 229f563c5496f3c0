// Property-based checks over the topology generators — the builder-contract
// analog of detlint's source contracts. For seeded sweeps of fat-tree
// k∈{2,4,8} and dragonfly (a,p,h,g) shapes:
//   - structural sanity: every port is wired at most once, attach ports
//     never collide with switch links, link endpoints are in range;
//   - full reachability: every (switch, destination) route-table walk ends
//     at the destination's ingress switch on the attach port;
//   - loop freedom: no walk exceeds the topology's hop bound;
//   - link bidirectionality: the built fabric's output ports pair up;
//   - LID/ingress-port invariants: lid_of_node bijective, attach mapping
//     injective, packets actually delivered end to end.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "fabric/topology_builder.h"
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

// Structural contract every generated blueprint must satisfy.
void check_blueprint_structure(const TopologyBlueprint& bp) {
  ASSERT_EQ(static_cast<int>(bp.attach.size()), bp.num_nodes);
  ASSERT_EQ(static_cast<int>(bp.routes.size()), bp.num_switches);

  // Each (switch, port) is used by at most one cable or one HCA attach.
  std::set<std::pair<int, int>> used;
  for (const auto& at : bp.attach) {
    ASSERT_GE(at.switch_id, 0);
    ASSERT_LT(at.switch_id, bp.num_switches);
    ASSERT_GE(at.port, 0);
    ASSERT_LT(at.port, bp.switch_radix);
    EXPECT_TRUE(used.insert({at.switch_id, at.port}).second)
        << "two nodes attach to sw" << at.switch_id << " port " << at.port;
  }
  for (const auto& link : bp.links) {
    ASSERT_GE(link.a, 0);
    ASSERT_LT(link.a, bp.num_switches);
    ASSERT_GE(link.b, 0);
    ASSERT_LT(link.b, bp.num_switches);
    ASSERT_NE(link.a, link.b) << "self-link on sw" << link.a;
    ASSERT_GE(link.port_a, 0);
    ASSERT_LT(link.port_a, bp.switch_radix);
    ASSERT_GE(link.port_b, 0);
    ASSERT_LT(link.port_b, bp.switch_radix);
    EXPECT_TRUE(used.insert({link.a, link.port_a}).second)
        << "port reuse sw" << link.a << ":" << link.port_a;
    EXPECT_TRUE(used.insert({link.b, link.port_b}).second)
        << "port reuse sw" << link.b << ":" << link.port_b;
  }

  for (const auto& table : bp.routes) {
    ASSERT_EQ(static_cast<int>(table.size()), bp.num_nodes);
    for (int port : table) {
      EXPECT_GE(port, 0);
      EXPECT_LT(port, bp.switch_radix);
    }
  }
}

// Reachability + loop freedom: every (switch, dest) walk terminates at the
// ingress switch within `hop_bound` switch-to-switch hops.
void check_routes(const TopologyBlueprint& bp, int hop_bound) {
  const int worst = bp.max_route_hops(hop_bound);
  ASSERT_GE(worst, 0) << "a route loops, dead-ends, or misdelivers";
  EXPECT_LE(worst, hop_bound);
}

// End-to-end packet check on the constructed fabric, plus link
// bidirectionality of the wired ports.
void check_built_fabric(const FabricConfig& cfg) {
  Fabric fabric(cfg);
  const TopologyBlueprint& bp = fabric.blueprint();
  EXPECT_EQ(fabric.node_count(), bp.num_nodes);
  EXPECT_EQ(fabric.switch_count(), bp.num_switches);

  // LID mapping bijective, attach contract surfaced through the public API.
  std::set<std::pair<int, int>> ingress_seen;
  for (int node = 0; node < fabric.node_count(); ++node) {
    EXPECT_EQ(fabric.node_of_lid(fabric.lid_of_node(node)), node);
    EXPECT_NE(fabric.lid_of_node(node), 0);
    const int sw = fabric.ingress_switch_of(node).id();
    const int port = fabric.ingress_port_of(node);
    EXPECT_TRUE(ingress_seen.insert({sw, port}).second);
  }

  // Bidirectionality: every blueprint cable became two OutputPorts that
  // point at each other's switch.
  const auto adj = bp.switch_adjacency();
  for (const auto& link : bp.links) {
    EXPECT_EQ(adj[static_cast<std::size_t>(link.a)]
                 [static_cast<std::size_t>(link.port_a)]
                     .sw,
              link.b);
    EXPECT_EQ(adj[static_cast<std::size_t>(link.b)]
                 [static_cast<std::size_t>(link.port_b)]
                     .sw,
              link.a);
  }

  // All-pairs delivery through the event-driven fabric.
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
}

// ---------------------------------------------------------------- fat-tree

class FatTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(FatTreeSweep, BlueprintProperties) {
  const int k = GetParam();
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kFatTree;
  cfg.topology.fattree_k = k;
  const TopologyBlueprint bp = build_topology(cfg);

  const int half = k / 2;
  EXPECT_EQ(bp.num_nodes, k * k * k / 4);
  EXPECT_EQ(bp.num_switches, k * k + half * half);
  EXPECT_EQ(bp.switch_radix, k);
  // Cables: k/2 edge-agg per (pod, edge) + k/2 agg-core per (pod, agg).
  EXPECT_EQ(static_cast<int>(bp.links.size()), k * half * half * 2);
  check_blueprint_structure(bp);
  // Up/down routing: edge-agg-core-agg-edge is at most 4 switch hops.
  check_routes(bp, 4);
}

TEST_P(FatTreeSweep, EcmpSeedIsDeterministicAndMeaningful) {
  const int k = GetParam();
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kFatTree;
  cfg.topology.fattree_k = k;
  const TopologyBlueprint bp1 = build_topology(cfg);
  const TopologyBlueprint bp2 = build_topology(cfg);
  EXPECT_EQ(bp1.routes, bp2.routes) << "same seed must give identical tables";

  cfg.topology.ecmp_seed = 0xDEADBEEF;
  const TopologyBlueprint bp3 = build_topology(cfg);
  check_routes(bp3, 4);  // any seed yields valid loop-free tables
  if (k >= 4) {
    EXPECT_NE(bp1.routes, bp3.routes)
        << "a different ECMP seed should move at least one up-port pick";
  }
}

INSTANTIATE_TEST_SUITE_P(Arities, FatTreeSweep, ::testing::Values(2, 4, 8));

TEST(FatTree, BuiltFabricDeliversAllPairs) {
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kFatTree;
  cfg.topology.fattree_k = 4;  // 16 hosts, 20 switches — the paper-scale run
  check_built_fabric(cfg);
}

TEST(FatTree, UpPortSpreadUsesMultiplePaths) {
  // ECMP must actually spread: with 16 destinations hashed over 2 up-ports
  // at each k=4 edge switch, both up-ports should carry some destinations.
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kFatTree;
  cfg.topology.fattree_k = 4;
  const TopologyBlueprint bp = build_topology(cfg);
  const int half = 2;
  for (int s = 0; s < 8; ++s) {  // the 8 edge switches
    std::set<int> up_ports_used;
    for (int d = 0; d < bp.num_nodes; ++d) {
      const int port =
          bp.routes[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)];
      if (port >= half) up_ports_used.insert(port);
    }
    EXPECT_GT(up_ports_used.size(), 1u) << "edge sw" << s << " never spreads";
  }
}

// --------------------------------------------------------------- dragonfly

struct DragonflyShape {
  int a, p, h, g;  // g = 0 selects the balanced a*h+1
  DragonflyRouting routing;
};

// Prints the shape by field: gtest would otherwise list the struct's raw
// bytes, tail padding included, in each test's ctest name.
void PrintTo(const DragonflyShape& s, std::ostream* os) {
  *os << "a=" << s.a << ",p=" << s.p << ",h=" << s.h << ",g=" << s.g
      << (s.routing == DragonflyRouting::kValiant ? ",valiant" : ",minimal");
}

class DragonflySweep : public ::testing::TestWithParam<DragonflyShape> {};

TEST_P(DragonflySweep, BlueprintProperties) {
  const DragonflyShape shape = GetParam();
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kDragonfly;
  cfg.topology.df_routers = shape.a;
  cfg.topology.df_hosts = shape.p;
  cfg.topology.df_globals = shape.h;
  cfg.topology.df_groups = shape.g;
  cfg.topology.df_routing = shape.routing;
  const TopologyBlueprint bp = build_topology(cfg);

  const int g = cfg.topology.dragonfly_groups();
  EXPECT_EQ(bp.num_nodes, shape.a * shape.p * g);
  EXPECT_EQ(bp.num_switches, shape.a * g);
  EXPECT_EQ(bp.switch_radix, shape.p + shape.a - 1 + shape.h);
  check_blueprint_structure(bp);
  // Minimal: local->global->local (3 switch hops). Valiant adds a second
  // local->global leg through the intermediate group (5 hops).
  check_routes(bp, shape.routing == DragonflyRouting::kValiant ? 5 : 3);

  // Every group pair has at least one global channel (wire-up guarantee).
  const auto adj = bp.switch_adjacency();
  std::set<std::pair<int, int>> group_pairs;
  for (const auto& link : bp.links) {
    const int ga = link.a / shape.a;
    const int gb = link.b / shape.a;
    if (ga != gb) group_pairs.insert({std::min(ga, gb), std::max(ga, gb)});
  }
  EXPECT_EQ(static_cast<int>(group_pairs.size()), g * (g - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DragonflySweep,
    ::testing::Values(
        DragonflyShape{2, 2, 1, 3, DragonflyRouting::kMinimal},
        DragonflyShape{2, 2, 1, 3, DragonflyRouting::kValiant},
        DragonflyShape{4, 2, 1, 0, DragonflyRouting::kMinimal},   // g=5
        DragonflyShape{4, 2, 1, 0, DragonflyRouting::kValiant},
        DragonflyShape{2, 1, 2, 4, DragonflyRouting::kMinimal},
        DragonflyShape{3, 2, 2, 7, DragonflyRouting::kValiant},
        DragonflyShape{1, 2, 2, 3, DragonflyRouting::kMinimal},   // a=1 edge
        DragonflyShape{4, 1, 2, 9, DragonflyRouting::kValiant}));

TEST(Dragonfly, BuiltFabricDeliversAllPairsMinimal) {
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kDragonfly;
  cfg.topology.df_routers = 2;
  cfg.topology.df_hosts = 2;
  cfg.topology.df_globals = 1;
  cfg.topology.df_groups = 3;  // 12 hosts, 6 routers
  check_built_fabric(cfg);
}

TEST(Dragonfly, BuiltFabricDeliversAllPairsValiant) {
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kDragonfly;
  cfg.topology.df_routers = 4;
  cfg.topology.df_hosts = 2;
  cfg.topology.df_globals = 1;
  cfg.topology.df_groups = 0;  // balanced g=5: 40 hosts, 20 routers
  cfg.topology.df_routing = DragonflyRouting::kValiant;
  check_built_fabric(cfg);
}

TEST(Dragonfly, ValiantDetoursSomeTraffic) {
  // Valiant must differ from minimal for at least one (switch, dest) pair
  // (per-destination intermediate groups make some first hops diverge).
  FabricConfig cfg;
  cfg.topology.kind = TopologyKind::kDragonfly;
  cfg.topology.df_routers = 4;
  cfg.topology.df_hosts = 2;
  cfg.topology.df_globals = 1;
  cfg.topology.df_groups = 0;
  const TopologyBlueprint minimal = build_topology(cfg);
  cfg.topology.df_routing = DragonflyRouting::kValiant;
  const TopologyBlueprint valiant = build_topology(cfg);
  EXPECT_NE(minimal.routes, valiant.routes);
}

// ------------------------------------------------------------------- mesh

TEST(MeshBlueprint, MatchesLegacyContract) {
  // The mesh is now just one builder among three; its blueprint must keep
  // the legacy 1:1 node<->switch, ingress-port-0 shape.
  FabricConfig cfg;
  cfg.mesh_width = 5;
  cfg.mesh_height = 3;
  const TopologyBlueprint bp = build_topology(cfg);
  EXPECT_EQ(bp.num_nodes, 15);
  EXPECT_EQ(bp.num_switches, 15);
  EXPECT_EQ(bp.switch_radix, 5);
  for (int i = 0; i < bp.num_nodes; ++i) {
    EXPECT_EQ(bp.attach[static_cast<std::size_t>(i)].switch_id, i);
    EXPECT_EQ(bp.attach[static_cast<std::size_t>(i)].port, 0);
  }
  check_blueprint_structure(bp);
  check_routes(bp, (5 - 1) + (3 - 1));  // XY: at most (w-1)+(h-1) hops
}

// ------------------------------------------------------------------- spec

TEST(TopologySpec, ParseRoundTrips) {
  for (const char* text :
       {"mesh:4x4", "fattree:k=4", "fattree:k=8",
        "dragonfly:a=4,p=2,h=1,g=5", "dragonfly:a=2,p=2,h=1,g=3,routing=valiant"}) {
    const auto spec = TopologySpec::parse(text);
    ASSERT_TRUE(spec.has_value()) << text;
    const auto again = TopologySpec::parse(spec->to_string());
    ASSERT_TRUE(again.has_value()) << spec->to_string();
    EXPECT_EQ(again->to_string(), spec->to_string());
  }
}

TEST(TopologySpec, ParseRejectsMalformedSpecs) {
  for (const char* text :
       {"torus:4x4", "fattree:k=3", "fattree:k=0", "fattree:q=4",
        "dragonfly:a=2,p=2,h=1,g=99",  // g-1 > a*h: not enough global ports
        "dragonfly:a=2,p=2,h=1,g=1", "dragonfly:a=2,p=2,h=1,routing=ugal",
        "mesh:0x4", "mesh:4x", "mesh:k=4", ""}) {
    EXPECT_FALSE(TopologySpec::parse(text).has_value()) << text;
  }
}

TEST(TopologySpec, SeedParameterFeedsEcmp) {
  const auto s1 = TopologySpec::parse("fattree:k=4,seed=7");
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->ecmp_seed, 7u);
  FabricConfig cfg;
  cfg.topology = *s1;
  const TopologyBlueprint bp1 = build_topology(cfg);
  cfg.topology.ecmp_seed = 8;
  const TopologyBlueprint bp2 = build_topology(cfg);
  EXPECT_NE(bp1.routes, bp2.routes);
}

// --------------------------------------------------- scenarios off-mesh

TEST(OffMeshScenario, FatTreeRunsFullScenario) {
  workload::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.fabric.topology.kind = TopologyKind::kFatTree;
  cfg.fabric.topology.fattree_k = 4;
  cfg.num_partitions = 4;
  cfg.num_attackers = 2;
  cfg.fabric.filter_mode = FilterMode::kSif;
  cfg.duration = 300 * time_literals::kMicrosecond;
  cfg.warmup = 50 * time_literals::kMicrosecond;
  workload::Scenario scenario(cfg);
  const auto r = scenario.run();
  EXPECT_GT(r.delivered, 100u);
  EXPECT_GT(r.attack_packets, 0u);
  EXPECT_GT(r.sif_installs, 0u);
  EXPECT_LE(scenario.fabric().max_link_utilization(), 1.0);
}

TEST(OffMeshScenario, DragonflyRunsFullScenario) {
  workload::ScenarioConfig cfg;
  cfg.seed = 12;
  cfg.fabric.topology.kind = TopologyKind::kDragonfly;
  cfg.fabric.topology.df_routers = 2;
  cfg.fabric.topology.df_hosts = 2;
  cfg.fabric.topology.df_globals = 1;
  cfg.fabric.topology.df_groups = 3;
  cfg.num_partitions = 3;
  cfg.num_attackers = 1;
  cfg.fabric.filter_mode = FilterMode::kIf;
  cfg.duration = 300 * time_literals::kMicrosecond;
  cfg.warmup = 50 * time_literals::kMicrosecond;
  workload::Scenario scenario(cfg);
  const auto r = scenario.run();
  EXPECT_GT(r.delivered, 50u);
  EXPECT_LE(scenario.fabric().max_link_utilization(), 1.0);
}

}  // namespace
}  // namespace ibsec::fabric
