#include "fabric/hca.h"

namespace ibsec::fabric {

Hca::Hca(sim::Simulator& simulator, const FabricConfig& config, int node_id)
    : sim_(simulator),
      config_(config),
      node_id_(node_id),
      out_(std::make_unique<OutputPort>(
          simulator, config.link, "hca" + std::to_string(node_id) + ".out")) {
  auto& reg = simulator.obs();
  const std::string prefix = "hca." + std::to_string(node_id) + ".";
  obs_injected_ = &reg.counter(prefix + "injected");
  obs_received_ = &reg.counter(prefix + "received");
}

void Hca::set_upstream(OutputPort* upstream) {
  in_ = InputPort(*upstream);
}

void Hca::send(ib::Packet&& pkt) {
  if (pkt.meta.created_at < 0) pkt.meta.created_at = sim_.now();
  // Packets built by a ChannelAdapter carry a trace id already; raw
  // injections (attackers, tests driving the HCA directly) get theirs here
  // so every wire packet has a lifecycle.
  if (sim_.trace().enabled() && pkt.meta.trace_id == 0) {
    pkt.meta.trace_id = sim_.trace().new_packet(
        node_id_, static_cast<int>(pkt.meta.dst_node),
        static_cast<int>(pkt.meta.traffic_class), sim_.now());
  }
  // Whatever enters the fabric is untrusted: its first switch re-hashes it.
  pkt.meta.vcrc_verified = false;
  obs_injected_->inc();
  const ib::VirtualLane vl = pkt.lrh.vl;
  out_->enqueue(sim_.packets().acquire(std::move(pkt)), vl);
}

void Hca::packet_arrived(ib::Packet&& pkt, int /*in_port*/) {
  const ib::VirtualLane vl = pkt.lrh.vl;
  in_.accept(pkt, vl);
  pkt.meta.delivered_at = sim_.now();
  obs_received_->inc();
  // Consume immediately: the HCA drains its receive buffer at line rate in
  // this model (the paper attributes congestion to the send side).
  const std::size_t bytes = pkt.wire_size();
  if (rx_) {
    rx_(std::move(pkt));
  }
  in_.release_bytes(bytes, vl);
}

std::string Hca::name() const { return "hca-" + std::to_string(node_id_); }

}  // namespace ibsec::fabric
