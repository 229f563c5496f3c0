// Property-based checks over the topology generators — the builder-contract
// analog of detlint's source contracts. For seeded sweeps of mesh and
// fat-tree k∈{2,4,8} shapes:
//   - structural sanity: every port is wired at most once, attach ports
//     never collide with switch links, link endpoints are in range;
//   - full reachability: every (switch, destination) route-table walk ends
//     at the destination's ingress switch on the attach port;
//   - loop freedom: no walk exceeds the topology's hop bound;
//   - deadlock freedom: the channel dependency graph of the routes is
//     acyclic, so credit flow control can never hold packets in a cycle;
//   - link bidirectionality: the built fabric's output ports pair up;
//   - LID/ingress-port invariants: lid_of_node bijective, attach mapping
//     injective, packets actually delivered end to end.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

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

// Deadlock freedom (Dally & Seitz): the channel dependency graph (CDG) of
// the routes must be acyclic. Its nodes are the switch-to-switch channels,
// named by their sending (switch, port). For each destination, a packet that
// leaves switch s on channel (s, routes[s][d]) and reaches switch t, not the
// destination's, next holds (t, routes[t][d]): one dependency per pair of
// consecutive channels on the route. Every switch counts as a possible start,
// which can only add dependencies. Kahn's algorithm then peels channels with
// no incoming dependency; any left over lie on, or behind, a cycle.
struct ChannelDependencies {
  std::size_t channels = 0;
  std::size_t dependencies = 0;  // distinct (from, to) channel pairs
  std::size_t on_cycles = 0;     // channels Kahn's algorithm cannot peel
};

ChannelDependencies channel_dependencies(const TopologyBlueprint& bp) {
  const auto adj = bp.switch_adjacency();
  const auto channel = [&bp](int sw, int port) {
    return static_cast<std::size_t>(sw) *
               static_cast<std::size_t>(bp.switch_radix) +
           static_cast<std::size_t>(port);
  };
  std::set<std::pair<std::size_t, std::size_t>> edges;
  for (int d = 0; d < bp.num_nodes; ++d) {
    const int dest_sw = bp.attach[static_cast<std::size_t>(d)].switch_id;
    for (int s = 0; s < bp.num_switches; ++s) {
      if (s == dest_sw) continue;
      const int port =
          bp.routes[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)];
      const int t =
          adj[static_cast<std::size_t>(s)][static_cast<std::size_t>(port)].sw;
      if (t < 0 || t == dest_sw) continue;
      edges.insert({channel(s, port),
                    channel(t, bp.routes[static_cast<std::size_t>(t)]
                                        [static_cast<std::size_t>(d)])});
    }
  }

  const std::size_t slots = static_cast<std::size_t>(bp.num_switches) *
                            static_cast<std::size_t>(bp.switch_radix);
  std::vector<std::vector<std::size_t>> out(slots);
  std::vector<int> in_degree(slots, 0);
  for (const auto& [from, to] : edges) {
    out[from].push_back(to);
    ++in_degree[to];
  }
  std::vector<std::size_t> ready;
  for (const auto& link : bp.links) {
    for (const std::size_t c :
         {channel(link.a, link.port_a), channel(link.b, link.port_b)}) {
      if (in_degree[c] == 0) ready.push_back(c);
    }
  }
  std::size_t peeled = 0;
  while (!ready.empty()) {
    const std::size_t c = ready.back();
    ready.pop_back();
    ++peeled;
    for (const std::size_t next : out[c]) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }
  ChannelDependencies cdg;
  cdg.channels = 2 * bp.links.size();
  cdg.dependencies = edges.size();
  cdg.on_cycles = cdg.channels - peeled;
  return cdg;
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

// ---------------------------------------------------------- deadlock freedom

class RoutesDeadlockFree : public ::testing::TestWithParam<const char*> {};

TEST_P(RoutesDeadlockFree, ChannelDependencyGraphIsAcyclic) {
  const auto spec = TopologySpec::parse(GetParam());
  ASSERT_TRUE(spec.has_value()) << GetParam();
  // The default ECMP seed and three others; the mesh's XY routes ignore it.
  for (const std::uint64_t seed :
       {TopologySpec{}.ecmp_seed, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{0xDEADBEEF}}) {
    FabricConfig cfg;
    cfg.topology = *spec;
    cfg.topology.ecmp_seed = seed;
    const ChannelDependencies cdg = channel_dependencies(build_topology(cfg));
    EXPECT_EQ(cdg.on_cycles, 0u)
        << GetParam() << " seed=" << seed << ": " << cdg.on_cycles
        << " of " << cdg.channels << " channels sit on or behind a cycle";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoutesDeadlockFree,
    ::testing::Values("mesh:2x1", "mesh", "mesh:3x5", "mesh:8x8",
                      "fattree:k=2", "fattree:k=4", "fattree:k=8"),
    [](const auto& info) {
      std::string name(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ChannelDependencyGraph, CountsArePinned) {
  // The graphs the sweep checks are not empty: a route of one switch hop
  // has no dependency, but longer ones do.
  FabricConfig cfg;
  cfg.topology = *TopologySpec::parse("mesh:2x1");
  EXPECT_EQ(channel_dependencies(build_topology(cfg)).dependencies, 0u);
  cfg.topology = *TopologySpec::parse("fattree:k=8");
  const ChannelDependencies fattree = channel_dependencies(build_topology(cfg));
  EXPECT_EQ(fattree.channels, 512u);
  EXPECT_EQ(fattree.dependencies, 2170u);
}

// ------------------------------------------------------------------- mesh

TEST(MeshBlueprint, MatchesLegacyContract) {
  // The mesh is one builder among two; its blueprint must keep
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
  for (const char* text : {"mesh", "mesh:4x4", "mesh:3x5", "fattree:k=4",
                           "fattree:k=8", "fattree:k=4,seed=7"}) {
    const auto spec = TopologySpec::parse(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_EQ(spec->to_string(), text);
    const auto again = TopologySpec::parse(spec->to_string());
    ASSERT_TRUE(again.has_value()) << spec->to_string();
    EXPECT_EQ(again->kind, spec->kind) << text;
    EXPECT_EQ(again->mesh_width, spec->mesh_width) << text;
    EXPECT_EQ(again->mesh_height, spec->mesh_height) << text;
    EXPECT_EQ(again->fattree_k, spec->fattree_k) << text;
    EXPECT_EQ(again->ecmp_seed, spec->ecmp_seed) << text;
  }
}

TEST(TopologySpec, ParseRejectsMalformedSpecs) {
  for (const char* text :
       {"torus:4x4", "fattree:k=3", "fattree:k=0", "fattree:q=4",
        "mesh:0x4", "mesh:4x", "mesh:k=4", "",
        // Retired spellings and a key the mesh's XY routes would ignore.
        "dragonfly:a=2,p=2,h=1,g=3", "fat-tree:k=4", "mesh:4x4,seed=3",
        // A key or the mesh's WxH given twice (not last-one-wins).
        "fattree:k=4,k=8", "mesh:4x4,2x2", "fattree:k=4,seed=1,seed=2",
        // More hosts than the 0xBFFF unicast LIDs (node + 1 in 16 bits);
        // int arithmetic would also overflow on each of these.
        "fattree:k=2000", "mesh:100000x100000"}) {
    EXPECT_FALSE(TopologySpec::parse(text).has_value()) << text;
  }
}

TEST(TopologySpec, HostCountStaysWithinUnicastLids) {
  const auto fattree = TopologySpec::parse("fattree:k=8");
  ASSERT_TRUE(fattree.has_value());
  EXPECT_EQ(fattree->node_count(0, 0), 128);
  // The bound is exact: 0xBFFF hosts parse, one more does not.
  const auto widest = TopologySpec::parse("mesh:1x49151");
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->node_count(0, 0), 0xBFFF);
  EXPECT_FALSE(TopologySpec::parse("mesh:1x49152").has_value());
  const auto k58 = TopologySpec::parse("fattree:k=58");
  ASSERT_TRUE(k58.has_value());
  EXPECT_EQ(k58->node_count(0, 0), 48778);
  EXPECT_FALSE(TopologySpec::parse("fattree:k=60").has_value());
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

}  // namespace
}  // namespace ibsec::fabric
