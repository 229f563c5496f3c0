#include "fabric/topology_spec.h"

#include <charconv>
#include <cstdio>
#include <vector>

namespace ibsec::fabric {

namespace {

bool parse_int(std::string_view text, int& out) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t pos = text.find(sep);
    if (pos == std::string_view::npos) {
      parts.push_back(text);
      return parts;
    }
    parts.push_back(text.substr(0, pos));
    text.remove_prefix(pos + 1);
  }
}

/// Splits "key=value"; false when there is no '='.
bool split_kv(std::string_view token, std::string_view& key,
              std::string_view& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
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
    case TopologyKind::kDragonfly:
      return df_routers * df_hosts * dragonfly_groups();
  }
  return 0;
}

std::optional<TopologySpec> TopologySpec::parse(std::string_view text) {
  TopologySpec spec;
  std::string_view kind = text;
  std::string_view params;
  const std::size_t colon = text.find(':');
  if (colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    params = text.substr(colon + 1);
  }

  if (kind == "mesh") {
    spec.kind = TopologyKind::kMesh;
  } else if (kind == "fattree" || kind == "fat-tree") {
    spec.kind = TopologyKind::kFatTree;
  } else if (kind == "dragonfly") {
    spec.kind = TopologyKind::kDragonfly;
  } else {
    return std::nullopt;
  }
  if (params.empty()) return spec;

  for (std::string_view token : split(params, ',')) {
    if (token.empty()) return std::nullopt;
    std::string_view key, value;
    if (!split_kv(token, key, value)) {
      // The one bare token allowed: mesh dimensions "WxH".
      if (spec.kind != TopologyKind::kMesh) return std::nullopt;
      const std::size_t x = token.find('x');
      if (x == std::string_view::npos) return std::nullopt;
      if (!parse_int(token.substr(0, x), spec.mesh_width)) return std::nullopt;
      if (!parse_int(token.substr(x + 1), spec.mesh_height)) {
        return std::nullopt;
      }
      if (spec.mesh_width < 1 || spec.mesh_height < 1) return std::nullopt;
      continue;
    }
    if (key == "seed") {
      if (!parse_u64(value, spec.ecmp_seed)) return std::nullopt;
      continue;
    }
    switch (spec.kind) {
      case TopologyKind::kMesh:
        return std::nullopt;  // mesh has no key=value shape parameters
      case TopologyKind::kFatTree:
        if (key != "k" || !parse_int(value, spec.fattree_k)) {
          return std::nullopt;
        }
        if (spec.fattree_k < 2 || spec.fattree_k % 2 != 0) {
          return std::nullopt;
        }
        break;
      case TopologyKind::kDragonfly:
        if (key == "a") {
          if (!parse_int(value, spec.df_routers)) return std::nullopt;
        } else if (key == "p") {
          if (!parse_int(value, spec.df_hosts)) return std::nullopt;
        } else if (key == "h") {
          if (!parse_int(value, spec.df_globals)) return std::nullopt;
        } else if (key == "g") {
          if (!parse_int(value, spec.df_groups)) return std::nullopt;
        } else if (key == "routing") {
          if (value == "minimal") {
            spec.df_routing = DragonflyRouting::kMinimal;
          } else if (value == "valiant") {
            spec.df_routing = DragonflyRouting::kValiant;
          } else {
            return std::nullopt;
          }
        } else {
          return std::nullopt;
        }
        break;
    }
  }

  if (spec.kind == TopologyKind::kDragonfly) {
    if (spec.df_routers < 1 || spec.df_hosts < 1 || spec.df_globals < 1) {
      return std::nullopt;
    }
    const int g = spec.dragonfly_groups();
    if (g < 2 || g > spec.df_routers * spec.df_globals + 1) {
      return std::nullopt;
    }
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
      std::snprintf(buf, sizeof(buf), "fattree:k=%d", fattree_k);
      break;
    case TopologyKind::kDragonfly:
      std::snprintf(buf, sizeof(buf), "dragonfly:a=%d,p=%d,h=%d,g=%d%s",
                    df_routers, df_hosts, df_globals, dragonfly_groups(),
                    df_routing == DragonflyRouting::kValiant ? ",routing=valiant"
                                                             : "");
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
    case TopologyKind::kDragonfly:
      std::snprintf(
          buf, sizeof(buf),
          "dragonfly a=%d p=%d h=%d g=%d %s (%d hosts, %d routers, radix %d)",
          df_routers, df_hosts, df_globals, dragonfly_groups(),
          df_routing == DragonflyRouting::kValiant ? "valiant" : "minimal",
          hosts, df_routers * dragonfly_groups(),
          df_hosts + df_routers - 1 + df_globals);
      break;
  }
  return buf;
}

}  // namespace ibsec::fabric
