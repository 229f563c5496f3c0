#include "fabric/topology_spec.h"

#include <cstdio>
#include <initializer_list>

#include "common/spec_text.h"

namespace ibsec::fabric {

namespace {

using spec_text::cut;
using spec_text::keys_distinct;
using spec_text::parse_int;
using spec_text::split;

/// Whether a host count given as a product of factors (each at least 1)
/// fits the LID space: LIDs are node + 1, and IBA unicast LIDs end at
/// 0xBFFF. Every partial product stays below 2^32, so nothing overflows.
bool hosts_fit_lids(std::initializer_list<std::int64_t> factors) {
  constexpr std::int64_t kMaxHosts = 0xBFFF;
  std::int64_t hosts = 1;
  for (const std::int64_t factor : factors) {
    if (factor > kMaxHosts) return false;
    hosts *= factor;
    if (hosts > kMaxHosts) return false;
  }
  return true;
}

}  // namespace

int TopologySpec::node_count(int fallback_w, int fallback_h) const {
  switch (kind) {
    case TopologyKind::kMesh: {
      const int w = mesh_width > 0 ? mesh_width : fallback_w;
      const int h = mesh_height > 0 ? mesh_height : fallback_h;
      return w * h;
    }
    case TopologyKind::kFatTree:
      return fattree_k * fattree_k * fattree_k / 4;
  }
  return 0;
}

std::optional<TopologySpec> TopologySpec::parse(std::string_view text) {
  TopologySpec spec;
  std::string_view kind, params;
  cut(text, ':', kind, params);

  if (kind == "mesh") {
    spec.kind = TopologyKind::kMesh;
  } else if (kind == "fattree") {
    spec.kind = TopologyKind::kFatTree;
  } else {
    return std::nullopt;
  }
  // A key, or the mesh's WxH token, given twice is an error: last-one-wins
  // would silently build another fabric than the one the spec names.
  const std::vector<std::string_view> tokens = split(params, ',');
  if (!keys_distinct(tokens)) return std::nullopt;
  for (std::string_view token : tokens) {
    if (token.empty()) return std::nullopt;
    std::string_view key, value;
    if (!cut(token, '=', key, value)) {
      // The one bare token allowed: mesh dimensions "WxH".
      std::string_view w, h;
      if (spec.kind != TopologyKind::kMesh || !cut(token, 'x', w, h) ||
          !parse_int(w, spec.mesh_width) || !parse_int(h, spec.mesh_height)) {
        return std::nullopt;
      }
      if (spec.mesh_width < 1 || spec.mesh_height < 1 ||
          !hosts_fit_lids({spec.mesh_width, spec.mesh_height})) {
        return std::nullopt;
      }
      continue;
    }
    // Only the fat-tree has key=value parameters: its arity and the seed of
    // its ECMP hash (the mesh's XY routes have no choice to seed).
    if (spec.kind != TopologyKind::kFatTree) return std::nullopt;
    if (key == "k") {
      if (!parse_int(value, spec.fattree_k) || spec.fattree_k < 2 ||
          spec.fattree_k % 2 != 0) {
        return std::nullopt;
      }
    } else if (key != "seed" || !parse_int(value, spec.ecmp_seed)) {
      return std::nullopt;
    }
  }

  if (spec.kind == TopologyKind::kFatTree) {
    const int half = spec.fattree_k / 2;  // k^3/4 hosts
    if (!hosts_fit_lids({half, half, spec.fattree_k})) return std::nullopt;
  }
  return spec;
}

std::string TopologySpec::to_string() const {
  char buf[160];
  switch (kind) {
    case TopologyKind::kMesh:
      if (mesh_width > 0 && mesh_height > 0) {
        std::snprintf(buf, sizeof(buf), "mesh:%dx%d", mesh_width, mesh_height);
      } else {
        std::snprintf(buf, sizeof(buf), "mesh");
      }
      break;
    case TopologyKind::kFatTree:
      if (ecmp_seed != TopologySpec{}.ecmp_seed) {
        std::snprintf(buf, sizeof(buf), "fattree:k=%d,seed=%llu", fattree_k,
                      static_cast<unsigned long long>(ecmp_seed));
      } else {
        std::snprintf(buf, sizeof(buf), "fattree:k=%d", fattree_k);
      }
      break;
  }
  return buf;
}

std::string TopologySpec::describe(int fallback_w, int fallback_h) const {
  char buf[200];
  const int hosts = node_count(fallback_w, fallback_h);
  switch (kind) {
    case TopologyKind::kMesh: {
      const int w = mesh_width > 0 ? mesh_width : fallback_w;
      const int h = mesh_height > 0 ? mesh_height : fallback_h;
      std::snprintf(buf, sizeof(buf), "%dx%d mesh (%d hosts, %d switches)", w,
                    h, hosts, hosts);
      break;
    }
    case TopologyKind::kFatTree: {
      const int half = fattree_k / 2;
      std::snprintf(buf, sizeof(buf),
                    "fat-tree k=%d (%d hosts, %d switches, radix %d)",
                    fattree_k, hosts, fattree_k * fattree_k + half * half,
                    fattree_k);
      break;
    }
  }
  return buf;
}

}  // namespace ibsec::fabric
