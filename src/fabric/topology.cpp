#include "fabric/topology.h"

#include <algorithm>

#include "common/check.h"

namespace ibsec::fabric {

Fabric::Fabric(const FabricConfig& config) : config_(config) {
  // The campaign's default profile seeds every link at construction time;
  // per-link overrides and dead switches are applied to the built topology.
  if (config_.fault_campaign.enabled()) {
    config_.link.faults = config_.fault_campaign.default_profile;
    config_.link.fault_seed = config_.fault_campaign.seed;
  }
  build();
  apply_fault_campaign();
}

void Fabric::build() {
  blueprint_ = build_topology(config_);
  const int n = blueprint_.num_nodes;
  IBSEC_CHECK(n == config_.node_count())
      << "blueprint hosts " << n << " vs config " << config_.node_count();

  // LIDs run 1..n (lid_of_node), so n + 1 entries cover every route.
  const auto num_lids = static_cast<std::size_t>(n) + 1;
  switches_.reserve(static_cast<std::size_t>(blueprint_.num_switches));
  for (int i = 0; i < blueprint_.num_switches; ++i) {
    switches_.push_back(std::make_unique<Switch>(
        sim_, config_, i, blueprint_.switch_radix, num_lids));
  }
  hcas_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    hcas_.push_back(std::make_unique<Hca>(sim_, config_, i));
  }

  // HCA <-> ingress-switch links, per the blueprint's attach contract.
  for (int i = 0; i < n; ++i) {
    const TopologyBlueprint::Attach& at =
        blueprint_.attach[static_cast<std::size_t>(i)];
    Hca& hca = *hcas_[static_cast<std::size_t>(i)];
    Switch& sw = *switches_[static_cast<std::size_t>(at.switch_id)];
    hca.out().connect(&sw, at.port);
    sw.set_upstream(at.port, &hca.out());
    sw.out(at.port).connect(&hca, 0);
    hca.set_upstream(&sw.out(at.port));
    sw.set_ingress_port(at.port, true);
  }

  // Switch-to-switch cables, wired bidirectionally in blueprint order.
  for (const TopologyBlueprint::Link& link : blueprint_.links) {
    connect_switches(link.a, link.port_a, link.b, link.port_b);
  }

  // Destination routing tables (all ECMP choice already resolved).
  for (int s = 0; s < blueprint_.num_switches; ++s) {
    Switch& sw = *switches_[static_cast<std::size_t>(s)];
    const std::vector<int>& ports =
        blueprint_.routes[static_cast<std::size_t>(s)];
    for (int d = 0; d < n; ++d) {
      sw.set_route(lid_of_node(d), ports[static_cast<std::size_t>(d)]);
    }
  }
}

void Fabric::connect_switches(int a, int port_a, int b, int port_b) {
  Switch& sa = *switches_[static_cast<std::size_t>(a)];
  Switch& sb = *switches_[static_cast<std::size_t>(b)];
  sa.out(port_a).connect(&sb, port_b);
  sb.set_upstream(port_b, &sa.out(port_a));
  sb.out(port_b).connect(&sa, port_a);
  sa.set_upstream(port_a, &sb.out(port_b));
}

void Fabric::apply_fault_campaign() {
  const FaultCampaign& campaign = config_.fault_campaign;
  // A campaign entry that names nothing is a typo, not a fault-free run.
  for (const auto& [name, profile] : campaign.link_overrides) {
    OutputPort* port = find_output_port(name);
    IBSEC_CHECK(port != nullptr)
        << "fault campaign: link " << name << " names no port";
    port->set_fault_profile(profile);
  }
  for (int id : campaign.dead_switches) {
    IBSEC_CHECK(id >= 0 && id < static_cast<int>(switches_.size()))
        << "fault campaign: dead-switch=" << id << " names no switch (the "
        << "fabric has " << switches_.size() << ")";
    switches_[static_cast<std::size_t>(id)]->set_dead(true);
  }
}

OutputPort* Fabric::find_output_port(const std::string& name) {
  for (auto& hca : hcas_) {
    if (hca->out().name() == name) return &hca->out();
  }
  for (auto& sw : switches_) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      if (sw->out(p).name() == name) return &sw->out(p);
    }
  }
  return nullptr;
}

std::uint64_t Fabric::total_filter_lookups() const {
  std::uint64_t total = 0;
  for (const auto& sw : switches_) total += sw->filter().total_lookups();
  return total;
}

std::uint64_t Fabric::total_filter_drops() const {
  std::uint64_t total = 0;
  for (const auto& sw : switches_) total += sw->filter().total_drops();
  return total;
}

std::size_t Fabric::total_filter_memory_bytes() const {
  std::size_t total = 0;
  for (const auto& sw : switches_) total += sw->filter().table_memory_bytes();
  return total;
}

double Fabric::max_link_utilization() {
  double max_util = 0.0;
  const SimTime now = sim_.now();
  for (auto& sw : switches_) {
    for (int p = 0; p < sw->num_ports(); ++p) {
      max_util = std::max(max_util, sw->out(p).utilization(now));
    }
  }
  for (auto& hca : hcas_) {
    max_util = std::max(max_util, hca->out().utilization(now));
  }
  return max_util;
}

}  // namespace ibsec::fabric
