// Fabric construction: instantiates whatever TopologyBlueprint the
// configured TopologySpec generates (mesh / fat-tree) — one
// Switch per blueprint switch, one HCA per node, cables and destination
// routing tables exactly as the builder laid them out.
//
// Mesh port convention (the default topology, unchanged from the original
// single-topology code):
//   0 = attached HCA (the ingress port for IF/SIF)
//   1 = +x (east), 2 = -x (west), 3 = +y (north), 4 = -y (south)
//
// Node n's port LID is n + 1 (LID 0 is reserved) on every topology. The
// node<->switch relationship is topology-specific: consumers must go
// through ingress_switch_of()/ingress_port_of() (the builder contract)
// rather than assume switch i serves node i.
#pragma once

#include <memory>
#include <vector>

#include "fabric/hca.h"
#include "fabric/switch.h"
#include "fabric/topology_builder.h"
#include "sim/simulator.h"

namespace ibsec::fabric {

class Fabric {
 public:
  explicit Fabric(const FabricConfig& config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator& simulator() { return sim_; }
  const FabricConfig& config() const { return config_; }

  int node_count() const { return config_.node_count(); }
  /// Switches in the fabric — NOT node_count() in general (a fat-tree has
  /// more switches than hosts share edge switches).
  int switch_count() const { return static_cast<int>(switches_.size()); }
  Hca& hca(int node) { return *hcas_.at(static_cast<std::size_t>(node)); }
  Switch& switch_at(int index) {
    return *switches_.at(static_cast<std::size_t>(index));
  }
  /// The switch a node's HCA plugs into (per the topology blueprint).
  Switch& ingress_switch_of(int node) {
    return switch_at(
        blueprint_.attach.at(static_cast<std::size_t>(node)).switch_id);
  }
  /// The port on the ingress switch facing the node's HCA.
  int ingress_port_of(int node) const {
    return blueprint_.attach.at(static_cast<std::size_t>(node)).port;
  }
  /// The topology the fabric was built from (tests walk its route tables).
  const TopologyBlueprint& blueprint() const { return blueprint_; }

  ib::Lid lid_of_node(int node) const {
    return static_cast<ib::Lid>(node + 1);
  }
  int node_of_lid(ib::Lid lid) const { return static_cast<int>(lid) - 1; }

  // --- aggregate statistics ---------------------------------------------------
  std::uint64_t total_filter_lookups() const;
  std::uint64_t total_filter_drops() const;
  std::size_t total_filter_memory_bytes() const;
  /// Finds an OutputPort by name ("hca3.out", "sw5.out1"); null if absent.
  OutputPort* find_output_port(const std::string& name);
  /// Highest transmit-side utilization over every switch output port
  /// (fabric links and switch->HCA links), at the current simulated time.
  double max_link_utilization();

 private:
  void build();
  void connect_switches(int a, int port_a, int b, int port_b);
  /// Applies config_.fault_campaign's per-link overrides and dead switches
  /// to the constructed topology.
  void apply_fault_campaign();

  FabricConfig config_;
  TopologyBlueprint blueprint_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Hca>> hcas_;
};

}  // namespace ibsec::fabric
