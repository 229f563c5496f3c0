#include "workload/attacker.h"

namespace ibsec::workload {

Attacker::Attacker(transport::ChannelAdapter& ca, Params params, Rng rng)
    : ca_(ca), params_(std::move(params)), rng_(rng) {
  obs_injected_ =
      &ca_.fabric().simulator().obs().counter("attack.packets_injected");
  const auto& cfg = ca_.fabric().config();
  const std::int64_t wire_bytes =
      static_cast<std::int64_t>(cfg.mtu_bytes) + 34;
  // Full speed: one packet per serialization slot (2.5 Gbps on a 1x link).
  injection_interval_ =
      serialization_time_ps(wire_bytes, cfg.link.bandwidth_bps);
}

void Attacker::start(SimTime at) {
  ca_.fabric().simulator().at(at, [this] { burst_boundary(); });
}

void Attacker::burst_boundary() {
  if (stopped_) return;
  active_ = rng_.bernoulli(params_.activity_probability);
  if (active_) {
    ++bursts_active_;
    if (!chain_running_) {
      chain_running_ = true;
      flood_tick();
    }
  }
  ca_.fabric().simulator().after(params_.burst_duration,
                                 [this] { burst_boundary(); });
}

ib::PKeyValue Attacker::random_invalid_pkey() {
  for (;;) {
    const auto pkey =
        static_cast<ib::PKeyValue>(rng_.next_u32() | ib::kPKeyMembershipBit);
    bool legal = false;
    for (ib::PKeyValue valid : params_.legal_pkeys) {
      if (ib::pkeys_match(valid, pkey)) {
        legal = true;
        break;
      }
    }
    if (!legal) return pkey;
  }
}

void Attacker::flood_tick() {
  if (stopped_ || !active_) {
    chain_running_ = false;
    return;
  }
  auto& fabric = ca_.fabric();

  // Pace at line rate but do not build a private backlog: the point is to
  // saturate the wire, not to accumulate unbounded queues at the source.
  const ib::VirtualLane vl =
      params_.fixed_vl ? *params_.fixed_vl
                       : (rng_.bernoulli(0.5) ? fabric::kRealtimeVl
                                              : fabric::kBestEffortVl);
  if (ca_.hca().send_queue_depth(vl) < params_.max_local_queue) {
    const int self = ca_.node();
    int dst = self;
    if (!params_.target_nodes.empty()) {
      dst = params_.target_nodes[rng_.uniform(params_.target_nodes.size())];
    } else {
      while (dst == self) {
        dst = static_cast<int>(rng_.uniform(
            static_cast<std::uint64_t>(fabric.node_count())));
      }
    }

    ib::Packet pkt;
    pkt.lrh.vl = vl;
    pkt.lrh.sl = vl;
    pkt.lrh.slid = fabric.lid_of_node(self);
    pkt.lrh.dlid = fabric.lid_of_node(dst);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey =
        params_.valid_pkey ? *params_.valid_pkey : random_invalid_pkey();
    pkt.bth.dest_qp = static_cast<ib::Qpn>(rng_.uniform(64));
    pkt.bth.psn = static_cast<ib::Psn>(injected_ & ib::kPsnMask);
    pkt.deth = ib::Deth{static_cast<ib::QKeyValue>(rng_.next_u32()), 2};
    const std::size_t mtu = fabric.config().mtu_bytes;
    pkt.payload = fabric.simulator().packets().buffer(mtu);
    pkt.payload.assign(mtu, 0xDD);
    pkt.meta.created_at = fabric.simulator().now();
    pkt.meta.src_node = static_cast<std::uint32_t>(self);
    pkt.meta.dst_node = static_cast<std::uint32_t>(dst);
    pkt.meta.traffic_class = vl == fabric::kRealtimeVl
                                 ? ib::PacketMeta::TrafficClass::kRealtime
                                 : ib::PacketMeta::TrafficClass::kBestEffort;
    pkt.meta.is_attack = true;
    pkt.finalize();
    ca_.inject_raw(std::move(pkt));
    ++injected_;
    obs_injected_->inc();
  }

  fabric.simulator().after(injection_interval_, [this] { flood_tick(); });
}

}  // namespace ibsec::workload
