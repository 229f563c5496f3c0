#include "fabric/link.h"

#include <bit>
#include <functional>  // std::hash for the per-port fault-stream seed

#include "common/check.h"

namespace ibsec::fabric {

const char* to_string(FilterMode mode) {
  switch (mode) {
    case FilterMode::kNone:
      return "No Filtering";
    case FilterMode::kDpt:
      return "DPT";
    case FilterMode::kIf:
      return "IF";
    case FilterMode::kSif:
      return "SIF";
  }
  return "?";
}

OutputPort::OutputPort(sim::Simulator& simulator, const LinkParams& params,
                       std::string name)
    : sim_(simulator),
      params_(params),
      name_(std::move(name)),
      vl_queues_(static_cast<std::size_t>(params.num_vls)),
      credits_(static_cast<std::size_t>(params.num_vls),
               params.buffer_bytes_per_vl),
      arbiter_(params.arbitration
                   ? *params.arbitration
                   : VlArbitrationConfig::paper_default(params.num_vls)),
      faults_(params.faults),
      // Per-port fault stream: deterministic, decorrelated across ports by
      // hashing the port name into the seed.
      fault_rng_(params.fault_seed ^
                 std::hash<std::string>{}(name_)) {
  auto& reg = simulator.obs();
  const std::string prefix = "link." + name_ + ".";
  obs_packets_ = &reg.counter(prefix + "packets");
  obs_bytes_ = &reg.counter(prefix + "bytes");
  obs_corrupted_ = &reg.counter(prefix + "faults.corrupted");
  obs_dropped_ = &reg.counter(prefix + "faults.dropped");
  obs_flap_dropped_ = &reg.counter(prefix + "faults.flap_dropped");
  obs_credit_stall_ = &reg.time_accumulator(prefix + "credit_stall");
  obs_queue_depth_ = &reg.gauge(prefix + "queue_depth");
  obs_vl_dispatched_.assign(static_cast<std::size_t>(params.num_vls), nullptr);
  obs_vl_depth_.assign(static_cast<std::size_t>(params.num_vls), nullptr);
  arbiter_.set_obs(&reg.counter(prefix + "arb.high_grants"),
                   &reg.counter(prefix + "arb.low_grants"));
  flap_label_ = "flap:" + name_;
  drop_label_ = "drop:" + name_;
  corrupt_label_ = "corrupt:" + name_;
}

void OutputPort::connect(Device* peer, int peer_port) {
  peer_ = peer;
  peer_port_ = peer_port;
}

IBSEC_HOT void OutputPort::enqueue(ib::Packet* slot, ib::VirtualLane vl,
                                   InputPort* release) {
  IBSEC_CHECK(vl < vl_queues_.size())
      << "port " << name_ << " enqueue on unconfigured VL "
      << static_cast<int>(vl);
  // Amortized ring growth: capacity doubles up to the VL's peak queue depth
  // and then stays. IBSEC_DETLINT_ALLOW(hot-alloc)
  vl_queues_[vl].push_back(
      QueuedPacket{slot, release, sim_.now(), slot->wire_size()});
  queued_mask_ |= 1u << vl;
  obs_queue_depth_->add(1);
  obs::Gauge*& vl_depth = obs_vl_depth_[vl];
  if (vl_depth == nullptr) vl_depth = &vl_depth_gauge(vl);
  vl_depth->add(1);
  try_dispatch();
}

obs::Gauge& OutputPort::vl_depth_gauge(ib::VirtualLane vl) {
  // Cold: once per (port, VL). Assembling the metric name here keeps the
  // string machinery out of the annotated enqueue body.
  return sim_.obs().gauge("link." + name_ + ".vl." +
                          std::to_string(static_cast<int>(vl)) +
                          ".queue_depth");
}

obs::Counter& OutputPort::vl_dispatched_counter(int vl_index) {
  // Cold: once per (port, VL), on the first dispatch.
  return sim_.obs().counter("link." + name_ + ".vl." +
                            std::to_string(vl_index) + ".dispatched");
}

void OutputPort::trace_fault(const ib::Packet& pkt, const std::string& label) {
  if (sim_.trace().enabled() && pkt.meta.trace_id != 0) {
    sim_.trace().instant(pkt.meta.trace_id, obs::TraceEventType::kLinkFault,
                         -1, sim_.now(), label);
  }
}

IBSEC_HOT OutputPort::QueuedPacket OutputPort::pop_front(ib::VirtualLane vl) {
  RingQueue<QueuedPacket>& queue = vl_queues_[vl];
  const QueuedPacket entry = queue.front();
  queue.pop_front();
  if (queue.empty()) queued_mask_ &= ~(1u << vl);
  obs_queue_depth_->add(-1);
  obs_vl_depth_[vl]->add(-1);  // enqueue resolved the gauge already
  return entry;
}

IBSEC_HOT void OutputPort::bank_credit(ib::VirtualLane vl,
                                       std::size_t bytes) {
  // The credit update travels back over the link.
  const SimTime at = sim_.now() + params_.propagation;
  // Amortized ring growth: capacity doubles up to the peak number of
  // credits in flight and then stays. IBSEC_DETLINT_ALLOW(hot-alloc)
  banked_.push_back(BankedCredit{at, sim_.reserve_seq(at),
                                 static_cast<std::uint32_t>(bytes), vl});
  wake_if_stalled();
}

IBSEC_HOT void OutputPort::add_credit(ib::VirtualLane vl, std::size_t bytes) {
  credits_[vl] += bytes;
  IBSEC_CHECK(credits_[vl] <= params_.buffer_bytes_per_vl)
      << "port " << name_ << " VL " << static_cast<int>(vl)
      << " credit overflow: " << credits_[vl] << " > "
      << params_.buffer_bytes_per_vl;
}

void OutputPort::wake_if_stalled() {
  if (wake_armed_ || line_busy_ || queued_mask_ == 0 || banked_.empty()) {
    return;
  }
  // The head is the earliest banked credit and no wake-up is armed, so
  // the wake-up goes to the place reserved for the head's landing.
  wake_armed_ = true;
  const BankedCredit& head = banked_.front();
  sim_.schedule_as(head.at, head.seq, [this] {
    wake_armed_ = false;
    try_dispatch();
  });
}

std::size_t OutputPort::queue_depth(ib::VirtualLane vl) const {
  return vl_queues_[vl].size();
}

int OutputPort::arbitrate() {
  // VL15 preempts everything, has no flow control and is outside the
  // arbitration tables.
  if ((queued_mask_ >> ib::kManagementVl & 1u) != 0) return ib::kManagementVl;
  std::uint32_t sendable = 0;
  for (std::uint32_t queued = queued_mask_; queued != 0;
       queued &= queued - 1) {
    const auto vl = static_cast<ib::VirtualLane>(std::countr_zero(queued));
    if (vl_queues_[vl].front().bytes <= credits_[vl]) sendable |= 1u << vl;
  }
  return arbiter_.pick_mask(sendable);
}

IBSEC_HOT void OutputPort::try_dispatch() {
  if (line_busy_ || peer_ == nullptr) return;
  // Fold in the credits that have landed by now, in landing order.
  while (!banked_.empty() &&
         sim_.reached(banked_.front().at, banked_.front().seq)) {
    add_credit(banked_.front().vl, banked_.front().bytes);
    banked_.pop_front();
  }
  while (true) {
    const int vl_index = arbitrate();
    if (vl_index < 0) {
      // A failed pick leaves both WRR tables at rest (current weights
      // refilled), and nothing touches the arbiter until the next
      // arbitrate(). So a credit that lands while the line stays free and
      // empty needs no arbitration at its instant: pick_mask(0) would
      // change nothing.
      IBSEC_DCHECK(arbiter_.at_rest());
      // Line free, packets queued, but no VL holds the credits to send: a
      // credit stall. The span closes at the next successful dispatch.
      if (stall_since_ < 0 && queued_mask_ != 0) {
        stall_since_ = sim_.now();
      }
      wake_if_stalled();
      IBSEC_DCHECK(queued_mask_ == 0 || banked_.empty() || wake_armed_);
      return;
    }
    if (stall_since_ >= 0) {
      obs_credit_stall_->add(sim_.now() - stall_since_);
      stall_since_ = -1;
    }
    const auto vl = static_cast<ib::VirtualLane>(vl_index);

    // A flapped-down (or dead) link silently discards at dispatch: no
    // credits are consumed (the far buffer never sees the packet) and the
    // line is not busied — loop for the next queued packet.
    if (faults_.down_at(sim_.now())) {
      const QueuedPacket entry = pop_front(vl);
      obs_flap_dropped_->inc();
      trace_fault(*entry.slot, flap_label_);
      if (entry.release != nullptr) entry.release->release_bytes(entry.bytes, vl);
      sim_.packets().release(entry.slot);
      continue;
    }

    obs::Counter*& vl_counter = obs_vl_dispatched_[vl];
    if (vl_counter == nullptr) vl_counter = &vl_dispatched_counter(vl_index);
    vl_counter->inc();

    const QueuedPacket entry = pop_front(vl);
    ib::Packet* const slot = entry.slot;
    const std::size_t bytes = entry.bytes;
    IBSEC_DCHECK(bytes == slot->wire_size());
    if (vl != ib::kManagementVl) {
      IBSEC_CHECK(credits_[vl] >= bytes)
          << "port " << name_ << " VL " << static_cast<int>(vl)
          << " dispatching " << bytes << " bytes with only " << credits_[vl]
          << " credits";
      credits_[vl] -= bytes;
      arbiter_.on_sent(vl, bytes);
    }

    // First wire entry only — switches re-dispatch the packet at every hop,
    // but injection time means "left the source HCA".
    const bool first_injection = slot->meta.injected_at < 0;
    if (first_injection) {
      slot->meta.injected_at = sim_.now();
    }
    if (entry.release != nullptr) entry.release->release_bytes(bytes, vl);

    const SimTime tx_time = serialization_time_ps(
        static_cast<std::int64_t>(bytes), params_.bandwidth_bps);
    line_busy_ = true;

    if (sim_.trace().enabled() && slot->meta.trace_id != 0) {
      obs::TraceRecorder& trace = sim_.trace();
      const std::uint64_t id = slot->meta.trace_id;
      if (sim_.now() > entry.enqueued_at) {
        trace.span(id, obs::TraceEventType::kQueueWait, -1, entry.enqueued_at,
                   sim_.now() - entry.enqueued_at, name_);
      }
      if (first_injection) {
        trace.instant(id, obs::TraceEventType::kInject, -1, sim_.now(), name_,
                      static_cast<std::int64_t>(vl));
      }
      trace.span(id, obs::TraceEventType::kSerialize, -1, sim_.now(), tx_time,
                 name_);
    }

    // Delivery of the last byte at the peer happens after serialization plus
    // propagation; the line frees after serialization alone.
    auto line_free = [this, bytes, tx_time] {
      line_busy_ = false;
      busy_time_ += tx_time;
      obs_packets_->inc();
      obs_bytes_->inc(bytes);
      try_dispatch();
    };
    sim_.after(tx_time, std::move(line_free));

    // Random wire loss: the packet serializes but never arrives. The far
    // buffer never held it, so the mirrored credits come back after the
    // would-be delivery plus the reverse propagation — otherwise every lost
    // packet would leak credits and eventually wedge the VL.
    if (faults_.drop_rate > 0.0 && fault_rng_.bernoulli(faults_.drop_rate)) {
      obs_dropped_->inc();
      trace_fault(*slot, drop_label_);
      if (vl != ib::kManagementVl) {
        // Due out of order with the banked returns, so it is an event.
        sim_.after(tx_time + 2 * params_.propagation, [this, vl, bytes] {
          add_credit(vl, bytes);
          try_dispatch();
        });
      }
      sim_.packets().release(slot);
      return;
    }

    // Fault injection: flip one random payload/header byte in flight. The
    // VCRC is left stale and the verified flag cleared, so the next hop's
    // link-layer check re-hashes the packet and catches it.
    if (faults_.corruption_rate > 0.0 &&
        fault_rng_.bernoulli(faults_.corruption_rate)) {
      slot->meta.vcrc_verified = false;
      obs_corrupted_->inc();
      trace_fault(*slot, corrupt_label_);
      if (!slot->payload.empty()) {
        const std::size_t at = fault_rng_.uniform(slot->payload.size());
        slot->payload[at] ^=
            static_cast<std::uint8_t>(1u << fault_rng_.uniform(8));
      } else {
        slot->bth.psn ^= 1;  // headers are all a headerless packet has
      }
    }

    // The packet flies in the slot it queued in, which returns to the pool
    // once the peer has taken the packet.
    auto deliver = [this, slot] {
      peer_->packet_arrived(std::move(*slot), peer_port_);
      sim_.packets().release(slot);
    };
    sim_.after(tx_time + params_.propagation, std::move(deliver));
    return;
  }
}

InputPort::InputPort(OutputPort& upstream)
    : upstream_(&upstream),
      used_(static_cast<std::size_t>(upstream.params_.num_vls), 0) {}

void InputPort::accept(const ib::Packet& pkt, ib::VirtualLane vl) {
  used_[vl] += pkt.wire_size();
  // VL15 is not flow controlled, so its buffer may notionally overflow; data
  // VLs must never exceed the advertised credit pool.
  IBSEC_CHECK(vl == ib::kManagementVl ||
              used_[vl] <= upstream_->params_.buffer_bytes_per_vl)
      << "input buffer overrun on VL " << static_cast<int>(vl) << ": "
      << used_[vl] << " > " << upstream_->params_.buffer_bytes_per_vl;
}

void InputPort::release_bytes(std::size_t bytes, ib::VirtualLane vl) {
  IBSEC_CHECK(used_[vl] >= bytes)
      << "releasing " << bytes << " bytes from VL " << static_cast<int>(vl)
      << " holding only " << used_[vl];
  used_[vl] -= bytes;
  if (vl != ib::kManagementVl) upstream_->bank_credit(vl, bytes);
}

}  // namespace ibsec::fabric
