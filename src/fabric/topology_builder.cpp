#include "fabric/topology_builder.h"

#include <algorithm>

#include "common/check.h"

namespace ibsec::fabric {

namespace {

// Mesh port convention (unchanged from the original single-topology code,
// so every existing trace/golden that names "sw5.out1" keeps meaning +x).
constexpr int kHcaPort = 0;
constexpr int kEast = 1, kWest = 2, kNorth = 3, kSouth = 4;
constexpr int kMeshRadix = 5;

TopologyBlueprint build_mesh(const FabricConfig& cfg) {
  const TopologySpec& spec = cfg.topology;
  const int w = spec.mesh_width > 0 ? spec.mesh_width : cfg.mesh_width;
  const int h = spec.mesh_height > 0 ? spec.mesh_height : cfg.mesh_height;
  IBSEC_CHECK(w >= 1 && h >= 1) << "mesh dims " << w << "x" << h;
  const int n = w * h;

  TopologyBlueprint bp;
  bp.num_nodes = n;
  bp.num_switches = n;
  bp.switch_radix = kMeshRadix;
  bp.attach.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) bp.attach[static_cast<std::size_t>(i)] = {i, kHcaPort};

  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int s = y * w + x;
      if (x + 1 < w) bp.links.push_back({s, kEast, s + 1, kWest});
      if (y + 1 < h) bp.links.push_back({s, kNorth, s + w, kSouth});
    }
  }

  // Deterministic deadlock-free XY routing: correct x first, then y, then
  // deliver to the local HCA.
  bp.routes.assign(static_cast<std::size_t>(n),
                   std::vector<int>(static_cast<std::size_t>(n), kHcaPort));
  for (int s = 0; s < n; ++s) {
    const int sx = s % w;
    const int sy = s / w;
    for (int d = 0; d < n; ++d) {
      const int dx = d % w;
      const int dy = d / w;
      int port;
      if (dx > sx) {
        port = kEast;
      } else if (dx < sx) {
        port = kWest;
      } else if (dy > sy) {
        port = kNorth;
      } else if (dy < sy) {
        port = kSouth;
      } else {
        port = kHcaPort;
      }
      bp.routes[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] =
          port;
    }
  }
  return bp;
}

// k-ary fat-tree (Clos): k pods, each with k/2 edge and k/2 aggregation
// switches; (k/2)^2 core switches; k^3/4 hosts; radix k everywhere.
//
// Switch ids: edge(p,e) = p*(k/2)+e, then agg(p,a) = k^2/2 + p*(k/2)+a,
// then core(c,m) = k^2 + c*(k/2)+m where c is the agg column the core
// serves. Edge/agg ports [0,k/2) face down, [k/2,k) face up; core port p
// faces pod p.
//
// Up/down routing: the downward half of every path is fully determined by
// the destination's address (pod, edge, host port); the upward half has
// k/2 equal-cost ports, resolved per (switch, dest) by ecmp_hash. Up ports
// strictly ascend and down ports strictly descend, so the tables are
// loop-free by construction (<= 4 switch hops end to end).
TopologyBlueprint build_fattree(const FabricConfig& cfg) {
  const int k = cfg.topology.fattree_k;
  IBSEC_CHECK(k >= 2 && k % 2 == 0) << "fat-tree arity k=" << k;
  const int half = k / 2;
  const int edges = k * half;          // edge switches fabric-wide
  const int aggs = k * half;           // aggregation switches fabric-wide
  const int cores = half * half;
  const int hosts_per_pod = half * half;
  const int n = k * hosts_per_pod;
  const std::uint64_t seed = cfg.topology.ecmp_seed;

  const auto edge_id = [half](int pod, int e) { return pod * half + e; };
  const auto agg_id = [half, edges](int pod, int a) {
    return edges + pod * half + a;
  };
  const auto core_id = [half, edges, aggs](int col, int m) {
    return edges + aggs + col * half + m;
  };

  TopologyBlueprint bp;
  bp.num_nodes = n;
  bp.num_switches = edges + aggs + cores;
  bp.switch_radix = k;

  // Host d = pod*(k/2)^2 + e*(k/2) + i attaches to edge(pod, e) port i.
  bp.attach.resize(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    const int pod = d / hosts_per_pod;
    const int e = (d % hosts_per_pod) / half;
    const int i = d % half;
    bp.attach[static_cast<std::size_t>(d)] = {edge_id(pod, e), i};
  }

  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        // Edge up-port (k/2 + a) <-> agg(pod, a) down-port e.
        bp.links.push_back({edge_id(pod, e), half + a, agg_id(pod, a), e});
      }
    }
    for (int a = 0; a < half; ++a) {
      for (int m = 0; m < half; ++m) {
        // Agg up-port (k/2 + m) <-> core(a, m) port pod.
        bp.links.push_back({agg_id(pod, a), half + m, core_id(a, m), pod});
      }
    }
  }

  bp.routes.assign(static_cast<std::size_t>(bp.num_switches),
                   std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int d = 0; d < n; ++d) {
    const int dpod = d / hosts_per_pod;
    const int dedge = (d % hosts_per_pod) / half;
    const int dhost = d % half;
    for (int pod = 0; pod < k; ++pod) {
      for (int e = 0; e < half; ++e) {
        const int s = edge_id(pod, e);
        int port;
        if (pod == dpod && e == dedge) {
          port = dhost;  // deliver to the attached host
        } else {
          port = half + static_cast<int>(ecmp_hash(
                            seed, static_cast<std::uint64_t>(s),
                            static_cast<std::uint64_t>(d)) %
                        static_cast<std::uint64_t>(half));
        }
        bp.routes[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] =
            port;
      }
      for (int a = 0; a < half; ++a) {
        const int s = agg_id(pod, a);
        int port;
        if (pod == dpod) {
          port = dedge;  // descend toward the destination edge
        } else {
          port = half + static_cast<int>(ecmp_hash(
                            seed, static_cast<std::uint64_t>(s),
                            static_cast<std::uint64_t>(d)) %
                        static_cast<std::uint64_t>(half));
        }
        bp.routes[static_cast<std::size_t>(s)][static_cast<std::size_t>(d)] =
            port;
      }
    }
    for (int c = 0; c < cores; ++c) {
      bp.routes[static_cast<std::size_t>(edges + aggs + c)]
               [static_cast<std::size_t>(d)] = dpod;
    }
  }
  return bp;
}

}  // namespace

std::uint64_t ecmp_hash(std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t dest) {
  // splitmix64 over the three inputs: cheap, well-mixed, and stable across
  // platforms (no libc hashing involved).
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (salt + 1) +
                    0xBF58476D1CE4E5B9ull * (dest + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

std::vector<std::vector<TopologyBlueprint::PortPeer>>
TopologyBlueprint::switch_adjacency() const {
  std::vector<std::vector<PortPeer>> adj(
      static_cast<std::size_t>(num_switches),
      std::vector<PortPeer>(static_cast<std::size_t>(switch_radix)));
  for (const Link& l : links) {
    adj[static_cast<std::size_t>(l.a)][static_cast<std::size_t>(l.port_a)] = {
        l.b, l.port_b};
    adj[static_cast<std::size_t>(l.b)][static_cast<std::size_t>(l.port_b)] = {
        l.a, l.port_a};
  }
  return adj;
}

int TopologyBlueprint::max_route_hops(int hop_limit) const {
  const auto adj = switch_adjacency();
  int worst = 0;
  for (int d = 0; d < num_nodes; ++d) {
    const Attach& dest = attach[static_cast<std::size_t>(d)];
    for (int s = 0; s < num_switches; ++s) {
      int at = s;
      int hops = 0;
      while (true) {
        const int port =
            routes[static_cast<std::size_t>(at)][static_cast<std::size_t>(d)];
        if (port < 0 || port >= switch_radix) return -1;
        if (at == dest.switch_id) {
          // Delivery: the route at the ingress switch must name the
          // attach port (which is not a switch link).
          if (port != dest.port) return -1;
          break;
        }
        const PortPeer& peer =
            adj[static_cast<std::size_t>(at)][static_cast<std::size_t>(port)];
        if (peer.sw < 0) return -1;  // routed into a non-link port
        at = peer.sw;
        if (++hops > hop_limit) return -1;  // forwarding loop
      }
      worst = std::max(worst, hops);
    }
  }
  return worst;
}

TopologyBlueprint build_topology(const FabricConfig& cfg) {
  switch (cfg.topology.kind) {
    case TopologyKind::kMesh:
      return build_mesh(cfg);
    case TopologyKind::kFatTree:
      return build_fattree(cfg);
  }
  IBSEC_CHECK(false) << "unknown topology kind";
  return {};
}

}  // namespace ibsec::fabric
