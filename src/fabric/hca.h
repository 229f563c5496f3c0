// Fabric-level Host Channel Adapter: one port, per-VL egress queues, and
// delivery of received packets to the transport layer.
//
// This class is deliberately "dumb": P_Key/Q_Key/authentication checks live
// in transport::ChannelAdapter, which owns one of these. What the fabric HCA
// does model is the paper's central measurement point — *queuing time*, the
// interval a packet waits in the HCA before the wire accepts it (credits and
// line availability), versus *network latency*, wire to delivery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "fabric/link.h"

namespace ibsec::fabric {

class Hca final : public Device {
 public:
  // Set once at wiring time, never per event, so heap-backed type erasure
  // is fine here.  IBSEC_DETLINT_ALLOW(hot-function)
  using ReceiveCallback = std::function<void(ib::Packet&&)>;

  Hca(sim::Simulator& simulator, const FabricConfig& config, int node_id);

  // --- wiring ---------------------------------------------------------------
  OutputPort& out() { return *out_; }
  void set_upstream(OutputPort* upstream);

  /// Transport-layer sink for received packets (after delivered_at is
  /// stamped). Input-buffer credits are released after the callback returns.
  void set_receive_callback(ReceiveCallback cb) { rx_ = std::move(cb); }

  // --- data path --------------------------------------------------------------
  /// Queues a packet for transmission; the VL is taken from the LRH. Stamps
  /// meta.created_at if the caller left it zero.
  void send(ib::Packet&& pkt);

  // --- Device -----------------------------------------------------------------
  void packet_arrived(ib::Packet&& pkt, int in_port) override;
  std::string name() const override;

  // --- introspection ------------------------------------------------------------
  int node_id() const { return node_id_; }
  std::size_t send_queue_depth(ib::VirtualLane vl) const {
    return out_->queue_depth(vl);
  }

 private:
  sim::Simulator& sim_;
  const FabricConfig& config_;
  int node_id_;
  std::unique_ptr<OutputPort> out_;
  InputPort in_;
  ReceiveCallback rx_;
  // "hca.<id>.injected" / ".received": the only store of these counts.
  obs::Counter* obs_injected_ = nullptr;
  obs::Counter* obs_received_ = nullptr;
};

}  // namespace ibsec::fabric
