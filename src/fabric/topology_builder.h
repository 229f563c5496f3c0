// Topology generators: every fabric shape is described by one
// TopologyBlueprint that Fabric::build() instantiates generically.
//
// The blueprint is the "builder contract" the rest of the repo consumes:
//   - attach[node] gives the ingress switch + port for node's HCA — the
//     point where IF/SIF filters and the ingress rate limiter sit, and
//     where the SM programs Invalid_P_Key tables. Nothing outside this
//     file may assume switch i == node i or ingress port == 0.
//   - links lists every switch<->switch cable; Fabric wires each entry
//     bidirectionally, in order (port names, and therefore per-port fault
//     RNG streams, derive from switch id + port number alone).
//   - routes[s][d] is the full destination-based forwarding table: the
//     output port on switch s toward node d (whose LID is d + 1). All
//     multi-path choice is resolved here, at build time, by the
//     deterministic ecmp_hash — the simulated switches stay simple
//     destination-routed devices and every run with the same spec + seed
//     forwards identically.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/config.h"

namespace ibsec::fabric {

struct TopologyBlueprint {
  int num_nodes = 0;
  int num_switches = 0;
  int switch_radix = 0;

  struct Attach {
    int switch_id = 0;
    int port = 0;
  };
  /// node -> ingress attachment (the LID/ingress-port/filter contract).
  std::vector<Attach> attach;

  struct Link {
    int a = 0;
    int port_a = 0;
    int b = 0;
    int port_b = 0;
  };
  /// Switch-to-switch cables; Fabric wires each bidirectionally, in order.
  std::vector<Link> links;

  /// routes[s][d] = output port on switch s toward node d (LID d + 1).
  /// Builders always produce a complete table (no -1 holes): every topology
  /// here is connected by construction.
  std::vector<std::vector<int>> routes;

  // --- graph helpers (property tests, tools) --------------------------------
  struct PortPeer {
    int sw = -1;    ///< far-end switch, -1 when the port is not a switch link
    int port = -1;
  };
  /// adjacency[s][p] = far end of switch s port p, derived from `links`.
  std::vector<std::vector<PortPeer>> switch_adjacency() const;

  /// Walks routes[s][d] hop by hop for every (switch, dest) pair and
  /// returns the longest switch-to-switch hop count, or -1 if any walk
  /// fails to reach dest's ingress switch within `hop_limit` hops (a
  /// forwarding loop, a route through a non-link port, or a wrong final
  /// port). This is the loop-freedom oracle the topology tests assert on.
  int max_route_hops(int hop_limit) const;
};

/// Builds the blueprint selected by cfg.topology; shape parameters are
/// validated with IBSEC_CHECK (a malformed spec is a programming error —
/// CLI strings are validated earlier by TopologySpec::parse).
TopologyBlueprint build_topology(const FabricConfig& cfg);

/// The equal-cost tie-break hash (splitmix64 over seed/salt/dest). Exposed
/// so tests can predict which up-port a route takes.
std::uint64_t ecmp_hash(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t dest);

}  // namespace ibsec::fabric
