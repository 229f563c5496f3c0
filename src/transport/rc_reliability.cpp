#include "transport/rc_reliability.h"

#include <string>

#include "common/check.h"
#include "transport/qp.h"

namespace ibsec::transport {
namespace {

/// RC request opcodes that consume a PSN at the responder (everything the
/// reliability protocol sequences and acknowledges).
bool is_rc_request(ib::OpCode op) {
  switch (op) {
    case ib::OpCode::kRcSendFirst:
    case ib::OpCode::kRcSendMiddle:
    case ib::OpCode::kRcSendLast:
    case ib::OpCode::kRcSendOnly:
    case ib::OpCode::kRcRdmaWriteOnly:
      return true;
    default:
      return false;
  }
}

bool bound_rc(const QueuePair& qp) {
  return qp.type == ServiceType::kReliableConnection && qp.connected;
}

}  // namespace

void RcContext::trace(const ib::Packet& pkt, obs::TraceEventType type,
                      const char* detail, std::int64_t a0) {
  if (sim.trace().enabled() && pkt.meta.trace_id != 0) {
    sim.trace().instant(pkt.meta.trace_id, type, node, sim.now(), detail, a0);
  }
}

// --- RcRequester -------------------------------------------------------------

IBSEC_HOT void RcRequester::submit(ib::Packet&& pkt) {
  if (!config().enabled) {
    rc_.wire.sign_and_send(std::move(pkt));
    return;
  }
  // Posts queue behind earlier ones whenever the window is full — pending
  // order is PSN order, so release keeps the wire sequence intact.
  if (!pending_.empty() || window_.size() >= config().max_outstanding) {
    // Window-full backpressure is the slow path by definition; the deque
    // only grows while the wire stays saturated. IBSEC_DETLINT_ALLOW(hot-alloc)
    pending_.push_back(std::move(pkt));
    return;
  }
  transmit(std::move(pkt));
}

IBSEC_HOT void RcRequester::transmit(ib::Packet&& pkt) {
  IBSEC_CHECK(window_.size() < config().max_outstanding)
      << "RC window overflow on QP " << qp_.qpn << ": " << window_.size()
      << " outstanding";
  const bool was_empty = window_.empty();
  const ib::Psn psn = pkt.bth.psn;
  ib::Packet copy = rc_.sim.packets().copy(pkt);
  const bool inserted = window_.emplace(psn, std::move(pkt)).second;
  IBSEC_CHECK(inserted) << "PSN " << psn << " already in RC window of QP "
                        << qp_.qpn;
  rc_.wire.sign_and_send(std::move(copy));
  if (was_empty) arm_timer();
}

void RcRequester::arm_timer() {
  // The event queue has no cancellation: bumping the generation makes every
  // previously scheduled timer of this requester a no-op.
  const std::uint64_t gen = ++timer_generation_;
  rc_.sim.after(rc_backoff_timeout(config(), retry_count_),
                [this, gen] { on_timeout(gen); });
}

void RcRequester::on_timeout(std::uint64_t generation) {
  if (timer_generation_ != generation || window_.empty()) return;
  ++retry_count_;
  IBSEC_DCHECK(retry_count_ <= config().max_retries + 1);
  if (retry_count_ > config().max_retries) {
    fail();
    return;
  }
  retransmit(window_.begin()->first);
  arm_timer();
}

void RcRequester::retransmit(ib::Psn from_psn) {
  // Go-back-N: every unacked request at or after from_psn goes out again,
  // re-signed (the stored copy is the pre-finalize packet).
  for (auto& [psn, pkt] : window_) {
    if (psn_lt(psn, from_psn)) continue;
    rc_.obs.retransmits->inc();
    rc_.trace(pkt, obs::TraceEventType::kRcRetransmit, "",
              static_cast<std::int64_t>(psn));
    rc_.wire.sign_and_send(rc_.sim.packets().copy(pkt));
  }
}

void RcRequester::fail() {
  rc_.obs.retry_exhausted->inc();
  failed_ = true;
  // Only a timeout fails a requester, and only with requests outstanding.
  const ib::Psn oldest = window_.begin()->first;
  window_.clear();
  pending_.clear();
  ++timer_generation_;
  if (rc_.on_error) rc_.on_error(qp_.qpn, oldest);
}

IBSEC_HOT void RcRequester::on_ack(RcContext& rc, QueuePair* qp,
                                   const ib::Packet& pkt) {
  rc.trace(pkt, obs::TraceEventType::kRcAck,
           !pkt.aeth                       ? "malformed"
           : pkt.aeth->syndrome == kAethAck ? "ack"
                                            : "nak");
  if (!rc.config.enabled) {
    rc.retire.ack->inc();
    return;
  }
  if (qp == nullptr || !bound_rc(*qp) || !pkt.aeth) {
    rc.record(obs::Decision::kCaRcControlRejected, *rc.retire.rc_bad_control,
              pkt, -1);
    return;
  }
  qp->requester.process_ack(pkt);
}

IBSEC_HOT void RcRequester::process_ack(const ib::Packet& pkt) {
  // The gate's two audited outcomes: control packets the fail-closed
  // validation discards, and spoofed ones that cleared window entries anyway
  // (the campaign's success signal).
  const ib::Psn psn = pkt.aeth->msn & ib::kPsnMask;
  const auto reject = [&] {
    rc_.record(obs::Decision::kCaRcControlRejected, *rc_.retire.rc_bad_control,
               pkt, static_cast<std::int64_t>(psn));
  };
  if (pkt.aeth->syndrome == kAethAck) {
    if (window_.empty()) {
      // Nothing outstanding: a stale duplicate of an earlier ACK.
      rc_.retire.ack->inc();
    } else if (config().validate_control && !psn_lt(psn, qp_.next_psn)) {
      // Acknowledges PSNs never sent — forged or corrupted; never lets an
      // attacker clear a window they didn't earn.
      reject();
    } else {
      rc_.retire.ack->inc();
      note_spoof(pkt, ack_through(psn, /*inclusive=*/true));
    }
    return;
  }
  if (pkt.aeth->syndrome == kAethNakPsnSequence) {
    if (config().validate_control && !psn_le(psn, qp_.next_psn)) {
      reject();
      return;
    }
    rc_.retire.nak->inc();
    // AETH.msn names the receiver's expected PSN: everything below it is
    // implicitly acknowledged, everything at/after it goes out again now.
    if (!window_.empty()) {
      note_spoof(pkt, ack_through(psn, /*inclusive=*/false));
      if (!window_.empty()) {
        retransmit(psn);
        arm_timer();
      }
    }
    return;
  }
  reject();  // unknown syndrome
}

void RcRequester::note_spoof(const ib::Packet& pkt, std::size_t cleared) {
  // Clearing window entries on an attack-tagged control packet is the
  // adversary "earning" progress it shouldn't. Lazily resolved so
  // attack-free runs never grow a snapshot entry.
  if (!pkt.meta.is_attack || cleared == 0) return;
  obs::Counter*& spoofed = rc_.obs.spoofed_control_accepted;
  if (spoofed == nullptr) {
    spoofed = &rc_.sim.obs().counter(
        "ca." + std::to_string(rc_.node) + ".rc.spoofed_control_accepted");
  }
  rc_.record(obs::Decision::kCaRcControlAccepted, *spoofed, pkt,
             static_cast<std::int64_t>(cleared));
}

IBSEC_HOT std::size_t RcRequester::ack_through(ib::Psn psn, bool inclusive) {
  std::size_t retired = 0;
  auto it = window_.begin();
  while (it != window_.end()) {
    const bool covered =
        inclusive ? psn_le(it->first, psn) : psn_lt(it->first, psn);
    if (!covered) break;
    rc_.trace(it->second, obs::TraceEventType::kRcComplete, "",
              static_cast<std::int64_t>(it->first));
    rc_.sim.packets().recycle(std::move(it->second.payload));
    it = window_.erase(it);
    ++retired;
  }
  if (retired > 0) on_progress();
  return retired;
}

void RcRequester::on_progress() {
  retry_count_ = 0;
  while (!pending_.empty() && window_.size() < config().max_outstanding) {
    ib::Packet pkt = std::move(pending_.front());
    pending_.pop_front();
    transmit(std::move(pkt));
  }
  if (window_.empty()) {
    ++timer_generation_;  // disarm
  } else {
    arm_timer();
  }
}

// --- RcResponder -------------------------------------------------------------

IBSEC_HOT RcResponder::Verdict RcResponder::admit(const ib::Packet& pkt) {
  if (!is_rc_request(pkt.bth.opcode) || !bound_rc(qp_)) {
    return Verdict::kDeliver;
  }
  const ib::Psn psn = pkt.bth.psn;
  if (!rc_.config.enabled) {
    // Fire-and-forget: deviations from PSN order are counted, not dropped
    // — there is no retransmission to recover them.
    if (psn != expected_psn_) ++rc_.counts.rc_out_of_order;
    expected_psn_ = (psn + 1) & ib::kPsnMask;
    return Verdict::kDeliver;
  }
  // In-order arrivals advance expected_psn; duplicates are re-acked and
  // retired; out-of-order arrivals are dropped with one NAK per gap
  // (go-back-N keeps the responder strictly in order).
  if (psn == expected_psn_) {
    expected_psn_ = (expected_psn_ + 1) & ib::kPsnMask;
    nak_armed_ = false;
    return Verdict::kDeliver;
  }
  if (psn_lt(psn, expected_psn_)) {
    rc_.record(obs::Decision::kCaRcDuplicate, *rc_.retire.rc_duplicate, pkt);
    schedule_ack(/*force=*/true);
    return Verdict::kDrop;
  }
  ++rc_.counts.rc_out_of_order;
  rc_.record(obs::Decision::kCaRcOutOfOrder, *rc_.retire.rc_out_of_order,
             pkt);
  if (!nak_armed_) {
    nak_armed_ = true;
    rc_.obs.naks->inc();
    reply(expected_psn_, ib::Aeth{kAethNakPsnSequence, expected_psn_});
  }
  return Verdict::kDrop;
}

void RcResponder::acknowledge(const ib::Packet& pkt) {
  if (!bound_rc(qp_)) return;
  if (rc_.config.enabled && is_rc_request(pkt.bth.opcode)) {
    schedule_ack(pkt.bth.ack_req);
  } else if (pkt.bth.ack_req) {
    ++rc_.counts.acks_sent;
    reply(pkt.bth.psn, ib::Aeth{kAethAck, pkt.bth.psn & ib::kPsnMask});
  }
}

void RcResponder::schedule_ack(bool force) {
  ++unacked_;
  if (force || unacked_ >= rc_.config.ack_coalesce) {
    send_ack();
    return;
  }
  if (ack_scheduled_) return;
  ack_scheduled_ = true;
  rc_.sim.after(rc_.config.ack_delay, [this] {
    // ack_scheduled_ cleared means a coalesce-threshold ACK beat the timer.
    if (ack_scheduled_) send_ack();
  });
}

void RcResponder::send_ack() {
  unacked_ = 0;
  ack_scheduled_ = false;
  // Cumulative: everything strictly below expected_psn has been accepted.
  const ib::Psn acked = (expected_psn_ + ib::kPsnMask) & ib::kPsnMask;
  ++rc_.counts.acks_sent;
  rc_.obs.acks->inc();
  reply(acked, ib::Aeth{kAethAck, acked});
}

void RcResponder::reply(ib::Psn psn, ib::Aeth aeth) {
  ib::Packet pkt = rc_.wire.to_peer(
      qp_, ib::OpCode::kRcAck, psn, ib::PacketMeta::TrafficClass::kBestEffort,
      -1);
  pkt.aeth = aeth;
  rc_.wire.sign_and_send(std::move(pkt));
}

const std::vector<std::uint8_t>* RcResponder::reassemble(
    const ib::Packet& pkt) {
  // Segments reassemble in arrival order: the protocol admits them in PSN
  // order, and the lossless fire-and-forget fabric keeps per-VL FIFO.
  if (pkt.bth.opcode == ib::OpCode::kRcSendFirst) {
    if (assembling_) ++rc_.counts.reassembly_errors;  // abandoned message
    assembling_ = true;
    message_ = pkt.payload;
    return nullptr;
  }
  if (pkt.bth.opcode != ib::OpCode::kRcSendMiddle &&
      pkt.bth.opcode != ib::OpCode::kRcSendLast) {
    return nullptr;
  }
  if (!assembling_) {
    ++rc_.counts.reassembly_errors;
    return nullptr;
  }
  message_.reserve(message_.size() + pkt.payload.size());
  message_.insert(message_.end(), pkt.payload.begin(), pkt.payload.end());
  if (pkt.bth.opcode == ib::OpCode::kRcSendMiddle) return nullptr;
  assembling_ = false;
  return &message_;
}

}  // namespace ibsec::transport
