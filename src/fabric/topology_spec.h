// Topology selection for the fabric: the paper's mesh plus the two
// deployment shapes real IB clusters use (k-ary fat-tree, dragonfly).
//
// A TopologySpec is pure shape description — no pointers into the built
// fabric — so it parses from a CLI string ("fattree:k=4"), embeds in
// FabricConfig, and round-trips through to_string() for provenance lines.
// The matching generators live in topology_builder.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ibsec::fabric {

enum class TopologyKind : std::uint8_t {
  kMesh = 0,       ///< paper testbed: WxH mesh, XY routing, 1 HCA per switch
  kFatTree = 1,    ///< k-ary fat-tree: k pods, k^3/4 hosts, up/down routing
  kDragonfly = 2,  ///< groups of routers with all-to-all global links
};

/// Dragonfly inter-group path selection (both are encoded into the static
/// per-destination routing tables — see topology_builder.h).
enum class DragonflyRouting : std::uint8_t {
  kMinimal = 0,  ///< local -> global -> local (shortest path)
  kValiant = 1,  ///< detour via a per-destination random intermediate group
};

struct TopologySpec {
  TopologyKind kind = TopologyKind::kMesh;

  /// Mesh dimensions carried by a "mesh:WxH" spec string; 0 means "keep the
  /// FabricConfig::mesh_width/mesh_height fields" (the pre-topology-layer
  /// way every existing test sizes the mesh).
  int mesh_width = 0;
  int mesh_height = 0;

  /// Fat-tree arity (must be even, >= 2): k pods of k/2 edge + k/2
  /// aggregation switches, (k/2)^2 cores, k^3/4 hosts, radix k everywhere.
  int fattree_k = 4;

  /// Dragonfly shape: `a` routers per group, `p` hosts per router, `h`
  /// global links per router, `g` groups (0 selects the balanced g = a*h+1,
  /// which consumes every global port). Constraint: 2 <= g <= a*h + 1.
  int df_routers = 4;
  int df_hosts = 2;
  int df_globals = 1;
  int df_groups = 0;
  DragonflyRouting df_routing = DragonflyRouting::kMinimal;

  /// Seed for the deterministic hash that resolves every equal-cost choice
  /// (fat-tree up-port ECMP, dragonfly global-channel pick, Valiant
  /// intermediate group). Same spec + same seed => identical route tables.
  std::uint64_t ecmp_seed = 0xEC3F;

  int dragonfly_groups() const {
    return df_groups > 0 ? df_groups : df_routers * df_globals + 1;
  }

  /// Host count implied by the spec; mesh uses the fallback dimensions for
  /// zero fields (see mesh_width above).
  int node_count(int fallback_w, int fallback_h) const;

  /// Grammar: "mesh[:WxH]" | "fattree:k=K" | "dragonfly:a=A,p=P,h=H[,g=G]
  /// [,routing=minimal|valiant]"; every kind accepts a trailing ",seed=N".
  /// Returns nullopt on any unrecognized kind, key, or malformed value, and
  /// on a shape with more than 0xBFFF hosts (IBA's unicast LIDs).
  static std::optional<TopologySpec> parse(std::string_view text);

  /// Canonical spec string (parse(to_string()) is the identity).
  std::string to_string() const;

  /// Human-readable shape line for banners, e.g.
  /// "fat-tree k=4 (16 hosts, 20 switches, radix 4)".
  std::string describe(int fallback_w, int fallback_h) const;
};

}  // namespace ibsec::fabric
