// Topology selection for the fabric: the paper's mesh plus the k-ary
// fat-tree, the shape of an MPI cluster on InfiniBand.
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
  kMesh = 0,     ///< paper testbed: WxH mesh, XY routing, 1 HCA per switch
  kFatTree = 1,  ///< k-ary fat-tree: k pods, k^3/4 hosts, up/down routing
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

  /// Seed for the deterministic hash that resolves the fat-tree's
  /// equal-cost up-port choices. Same spec + same seed => identical route
  /// tables.
  std::uint64_t ecmp_seed = 0xEC3F;

  /// Host count implied by the spec; mesh uses the fallback dimensions for
  /// zero fields (see mesh_width above).
  int node_count(int fallback_w, int fallback_h) const;

  /// Grammar: "mesh[:WxH]" | "fattree:k=K[,seed=N]".
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
