#include "workload/traffic.h"

namespace ibsec::workload {
namespace {

std::vector<std::uint8_t> make_payload(transport::ChannelAdapter& ca,
                                       std::size_t size,
                                       std::uint64_t counter) {
  // Deterministic low-cost payload: a counter header over a fixed pattern,
  // in a buffer from the simulator's packet pool.
  std::vector<std::uint8_t> payload =
      ca.fabric().simulator().packets().buffer(size);
  payload.assign(size, 0x5A);
  for (std::size_t i = 0; i < 8 && i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(counter >> (8 * i));
  }
  return payload;
}

}  // namespace

TrafficSource::TrafficSource(transport::ChannelAdapter& ca, ib::Qpn src_qp,
                             std::vector<Peer> peers, Rng rng,
                             security::QpKeyManager* qp_keys,
                             SimTime per_message_overhead)
    : ca_(ca),
      rng_(rng),
      src_qp_(src_qp),
      peers_(std::move(peers)),
      qp_keys_(qp_keys),
      per_message_overhead_(per_message_overhead) {
  if (qp_keys_ != nullptr) {
    qp_keys_->add_qkey_ready_callback(
        [this](int peer_node, ib::Qpn peer_qp, ib::QKeyValue qkey) {
          for (std::size_t i = 0; i < peers_.size(); ++i) {
            Peer& peer = peers_[i];
            if (peer.node != peer_node || peer.qp != peer_qp) continue;
            peer.qkey = qkey;
            peer.ready = true;
            // Flush messages that waited for the key exchange; their
            // queuing time keeps the original creation instant.
            auto pending = pending_.find(i);
            if (pending != pending_.end()) {
              for (SimTime created_at : pending->second) {
                ++posted_;
                ca_.post_send(src_qp_,
                              make_payload(ca_, payload_size(), posted_),
                              traffic_class(), peer.node, peer.qp, peer.qkey,
                              created_at);
              }
              pending_.erase(pending);
            }
          }
        });
  } else {
    // Baseline: Q_Keys pre-shared at setup.
    for (Peer& peer : peers_) peer.ready = true;
  }
}

std::size_t TrafficSource::payload_size() const {
  return ca_.fabric().config().mtu_bytes;
}

void TrafficSource::start(SimTime at) {
  ca_.fabric().simulator().at(at, [this] { tick(); });
}

void TrafficSource::tick() {
  if (stopped_) return;
  const SimTime interval = next_interval();
  if (interval >= 0) {
    ca_.fabric().simulator().after(interval, [this] { tick(); });
  }
  if (peers_.empty()) return;
  if (!may_send_now()) {
    ++skipped_;
    return;
  }
  Peer& peer = peers_[rng_.uniform(peers_.size())];
  emit_to(peer, ca_.fabric().simulator().now());
}

void TrafficSource::emit_to(Peer& peer, SimTime created_at) {
  ++generated_;
  if (!peer.ready) {
    // First contact under QP-level key management: kick off the Q_Key
    // request (once) and hold the message at the application layer.
    const std::size_t index = static_cast<std::size_t>(&peer - peers_.data());
    pending_[index].push_back(created_at);
    if (!request_in_flight_[index] && qp_keys_ != nullptr) {
      request_in_flight_[index] = true;
      qp_keys_->request_qkey(src_qp_, peer.node, peer.qp);
    }
    return;
  }
  const auto post = [this, &peer, created_at] {
    ++posted_;
    ca_.post_send(src_qp_, make_payload(ca_, payload_size(), posted_),
                  traffic_class(), peer.node, peer.qp, peer.qkey, created_at);
  };
  if (per_message_overhead_ > 0) {
    // The per-message MAC stage (one pipeline cycle, paper sec. 6).
    ca_.fabric().simulator().after(per_message_overhead_, post);
  } else {
    post();
  }
}

RealtimeSource::RealtimeSource(transport::ChannelAdapter& ca, ib::Qpn src_qp,
                               std::vector<Peer> peers, Rng rng,
                               security::QpKeyManager* qp_keys,
                               SimTime per_message_overhead,
                               double rate_fraction,
                               std::size_t backoff_queue_limit)
    : TrafficSource(ca, src_qp, std::move(peers), rng, qp_keys,
                    per_message_overhead),
      backoff_limit_(backoff_queue_limit) {
  const auto& cfg = ca.fabric().config();
  const std::int64_t wire_bytes =
      static_cast<std::int64_t>(cfg.mtu_bytes) + 34;  // UD headers + CRCs
  const SimTime packet_time =
      serialization_time_ps(wire_bytes, cfg.link.bandwidth_bps);
  interval_ = static_cast<SimTime>(static_cast<double>(packet_time) /
                                   rate_fraction);
}

bool RealtimeSource::may_send_now() const {
  // "An application does not send any packet when the current network
  // status cannot support the application's bandwidth requirement."
  return ca_.hca().send_queue_depth(fabric::kRealtimeVl) < backoff_limit_;
}

BestEffortSource::BestEffortSource(transport::ChannelAdapter& ca,
                                   ib::Qpn src_qp, std::vector<Peer> peers,
                                   Rng rng, security::QpKeyManager* qp_keys,
                                   SimTime per_message_overhead,
                                   double injection_fraction)
    : TrafficSource(ca, src_qp, std::move(peers), rng, qp_keys,
                    per_message_overhead) {
  const auto& cfg = ca.fabric().config();
  const std::int64_t wire_bytes =
      static_cast<std::int64_t>(cfg.mtu_bytes) + 34;
  const SimTime packet_time =
      serialization_time_ps(wire_bytes, cfg.link.bandwidth_bps);
  mean_interval_ps_ =
      static_cast<double>(packet_time) / injection_fraction;
}

SimTime BestEffortSource::next_interval() {
  return static_cast<SimTime>(rng_.exponential(mean_interval_ps_));
}

RcMessageSource::RcMessageSource(transport::ChannelAdapter& ca, ib::Qpn qp,
                                 Rng rng, double load_fraction,
                                 std::size_t mean_message_bytes)
    : ca_(ca), qp_(qp), rng_(rng), mean_bytes_(mean_message_bytes) {
  const auto& cfg = ca.fabric().config();
  const SimTime message_time = serialization_time_ps(
      static_cast<std::int64_t>(mean_message_bytes), cfg.link.bandwidth_bps);
  mean_interval_ps_ = static_cast<double>(message_time) / load_fraction;
}

void RcMessageSource::start(SimTime at) {
  ca_.fabric().simulator().at(at, [this] { tick(); });
}

void RcMessageSource::tick() {
  if (stopped_) return;
  ca_.fabric().simulator().after(
      static_cast<SimTime>(rng_.exponential(mean_interval_ps_)),
      [this] { tick(); });
  // Sizes uniform in (0, 2*mean]: half the messages need segmentation when
  // the mean sits above the MTU.
  const std::size_t size = 1 + rng_.uniform(2 * mean_bytes_);
  if (ca_.post_message(qp_, make_payload(ca_, size, posted_ + 1),
                       ib::PacketMeta::TrafficClass::kBestEffort)) {
    ++posted_;
  } else {
    ++post_failures_;
  }
}

}  // namespace ibsec::workload
