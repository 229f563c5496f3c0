#include "transport/channel_adapter.h"

#include "common/check.h"

namespace ibsec::transport {
namespace {

ib::VirtualLane vl_for(ib::PacketMeta::TrafficClass tclass) {
  switch (tclass) {
    case ib::PacketMeta::TrafficClass::kRealtime:
      return fabric::kRealtimeVl;
    case ib::PacketMeta::TrafficClass::kManagement:
      return ib::kManagementVl;
    case ib::PacketMeta::TrafficClass::kBestEffort:
      break;
  }
  return fabric::kBestEffortVl;
}

/// RC request opcodes that consume a PSN at the responder (everything the
/// reliability protocol sequences and acknowledges).
bool is_rc_request(ib::OpCode op) {
  switch (op) {
    case ib::OpCode::kRcSendFirst:
    case ib::OpCode::kRcSendMiddle:
    case ib::OpCode::kRcSendLast:
    case ib::OpCode::kRcSendOnly:
    case ib::OpCode::kRcRdmaWriteOnly:
    case ib::OpCode::kRcRdmaReadRequest:
      return true;
    default:
      return false;
  }
}

}  // namespace

ChannelAdapter::ChannelAdapter(fabric::Fabric& fabric, int node,
                               PkiDirectory& pki, std::uint64_t key_seed,
                               std::size_t rsa_bits)
    : fabric_(fabric),
      node_(node),
      pki_(pki),
      drbg_(key_seed ^ (0x1BA5EC0000ULL + static_cast<std::uint64_t>(node))),
      keypair_(crypto::rsa_generate(rsa_bits, drbg_)) {
  pki_.register_node(node_, keypair_.public_key);
  partition_table_.add(ib::kDefaultPKey);
  auto& reg = fabric_.simulator().obs();
  const std::string prefix = "ca." + std::to_string(node_) + ".retired.";
  retire_.vcrc = &reg.counter(prefix + "vcrc");
  retire_.mad = &reg.counter(prefix + "mad");
  retire_.pkey_violation = &reg.counter(prefix + "pkey_violation");
  retire_.auth_missing = &reg.counter(prefix + "auth_missing");
  retire_.auth_rejected = &reg.counter(prefix + "auth_rejected");
  retire_.icrc_error = &reg.counter(prefix + "icrc_error");
  retire_.rdma_rejected = &reg.counter(prefix + "rdma_rejected");
  retire_.rdma_nak = &reg.counter(prefix + "rdma_nak");
  retire_.rdma_read_response = &reg.counter(prefix + "rdma_read_response");
  retire_.ack = &reg.counter(prefix + "ack");
  retire_.nak = &reg.counter(prefix + "nak");
  retire_.no_dest_qp = &reg.counter(prefix + "no_dest_qp");
  retire_.qkey_violation = &reg.counter(prefix + "qkey_violation");
  retire_.delivered = &reg.counter(prefix + "delivered");
  retire_.rc_duplicate = &reg.counter(prefix + "rc_duplicate");
  retire_.rc_out_of_order = &reg.counter(prefix + "rc_out_of_order");
  retire_.rc_bad_control = &reg.counter(prefix + "rc_bad_control");
  const std::string rc_prefix = "ca." + std::to_string(node_) + ".rc.";
  rc_obs_.retransmits = &reg.counter(rc_prefix + "retransmits");
  rc_obs_.acks = &reg.counter(rc_prefix + "acks");
  rc_obs_.naks = &reg.counter(rc_prefix + "naks");
  rc_obs_.retry_exhausted = &reg.counter(rc_prefix + "retry_exhausted");
  fabric_.hca(node_).set_receive_callback(
      [this](ib::Packet&& pkt) { on_packet(std::move(pkt)); });
}

std::optional<std::vector<std::uint8_t>> ChannelAdapter::wrap_for(
    int node, std::span<const std::uint8_t> plaintext) {
  const auto pub = pki_.public_key_of(node);
  if (!pub) return std::nullopt;
  return crypto::rsa_encrypt(*pub, plaintext, drbg_);
}

bool ChannelAdapter::register_memory(const ib::MemoryRegion& region,
                                     std::vector<std::uint8_t> initial) {
  if (!memory_table_.register_region(region)) return false;
  initial.resize(region.length, 0);
  memory_[region.rkey] = std::move(initial);
  return true;
}

const std::vector<std::uint8_t>* ChannelAdapter::memory_of(
    ib::RKeyValue rkey) const {
  const auto it = memory_.find(rkey);
  return it == memory_.end() ? nullptr : &it->second;
}

QueuePair& ChannelAdapter::create_qp(ServiceType type, ib::PKeyValue pkey) {
  QueuePair qp;
  qp.qpn = next_qpn_++;
  qp.type = type;
  qp.pkey = pkey;
  if (type == ServiceType::kUnreliableDatagram) {
    qp.qkey = static_cast<ib::QKeyValue>(drbg_.next_u64());
  }
  return qps_.emplace(qp.qpn, qp).first->second;
}

QueuePair* ChannelAdapter::find_qp(ib::Qpn qpn) {
  const auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : &it->second;
}

void ChannelAdapter::bind_rc(ib::Qpn local, int peer_node, ib::Qpn peer_qpn) {
  QueuePair* qp = find_qp(local);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection) return;
  qp->peer_node = peer_node;
  qp->peer_qpn = peer_qpn;
  qp->connected = true;
}

ib::Packet ChannelAdapter::make_packet(ib::PacketMeta::TrafficClass tclass,
                                       int dst_node, ib::PKeyValue pkey,
                                       SimTime created_at) {
  ib::Packet pkt;
  pkt.lrh.vl = vl_for(tclass);
  pkt.lrh.sl = pkt.lrh.vl;  // identity SL->VL map
  pkt.lrh.slid = fabric_.lid_of_node(node_);
  pkt.lrh.dlid = fabric_.lid_of_node(dst_node);
  pkt.bth.pkey = pkey;
  sim::Simulator& sim = fabric_.simulator();
  pkt.meta.created_at = created_at >= 0 ? created_at : sim.now();
  pkt.meta.src_node = static_cast<std::uint32_t>(node_);
  pkt.meta.dst_node = static_cast<std::uint32_t>(dst_node);
  pkt.meta.traffic_class = tclass;
  pkt.meta.message_id = next_message_id_++;
  // Assign trace identity here — before RC transmit copies the packet into
  // its window — so retransmitted copies share the original's lifecycle.
  if (sim.trace().enabled()) {
    pkt.meta.trace_id = sim.trace().new_packet(
        node_, dst_node, static_cast<int>(tclass), pkt.meta.created_at);
  }
  return pkt;
}

obs::AuditEvent ChannelAdapter::audit_event(const ib::Packet& pkt) const {
  obs::AuditEvent ev;
  ev.at = fabric_.simulator().now();
  ev.node = node_;
  ev.actor_lid = static_cast<std::int32_t>(pkt.lrh.slid);
  ev.actor_qp = pkt.deth ? static_cast<std::int32_t>(pkt.deth->src_qp) : -1;
  ev.victim_lid = static_cast<std::int32_t>(pkt.lrh.dlid);
  ev.victim_qp = static_cast<std::int32_t>(pkt.bth.dest_qp);
  ev.trace_id = pkt.meta.trace_id;
  return ev;
}

void ChannelAdapter::trace_retire(const ib::Packet& pkt, const char* cause) {
  sim::Simulator& sim = fabric_.simulator();
  if (!sim.trace().enabled() || pkt.meta.trace_id == 0) return;
  sim.trace().instant(pkt.meta.trace_id,
                      cause == nullptr ? obs::TraceEventType::kDeliver
                                       : obs::TraceEventType::kRetire,
                      node_, sim.now(),
                      cause == nullptr ? std::string() : std::string(cause));
}

bool ChannelAdapter::post_send(ib::Qpn local_qp,
                               std::vector<std::uint8_t> payload,
                               ib::PacketMeta::TrafficClass tclass,
                               int dst_node, ib::Qpn dst_qp,
                               ib::QKeyValue remote_qkey, SimTime created_at) {
  QueuePair* qp = find_qp(local_qp);
  if (qp == nullptr) return false;
  if (payload.size() > fabric_.config().mtu_bytes) return false;

  int target_node = dst_node;
  ib::Qpn target_qp = dst_qp;
  if (qp->type == ServiceType::kReliableConnection) {
    if (!qp->connected || qp->rc_error) return false;
    target_node = qp->peer_node;
    target_qp = qp->peer_qpn;
  } else if (target_node < 0) {
    return false;
  }

  ib::Packet pkt = make_packet(tclass, target_node, qp->pkey, created_at);
  pkt.bth.opcode = qp->type == ServiceType::kReliableConnection
                       ? ib::OpCode::kRcSendOnly
                       : ib::OpCode::kUdSendOnly;
  pkt.bth.dest_qp = target_qp;
  pkt.bth.psn = qp->take_psn();
  pkt.meta.src_qp = qp->qpn;
  if (qp->type == ServiceType::kUnreliableDatagram) {
    pkt.deth = ib::Deth{remote_qkey, qp->qpn};
  }
  pkt.payload = std::move(payload);

  ++qp->counters.sent;
  if (qp->type == ServiceType::kReliableConnection) {
    rc_submit(*qp, std::move(pkt));
  } else {
    sign_and_send(std::move(pkt));
  }
  return true;
}

bool ChannelAdapter::post_message(ib::Qpn local_qp,
                                  std::vector<std::uint8_t> message,
                                  ib::PacketMeta::TrafficClass tclass) {
  QueuePair* qp = find_qp(local_qp);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection ||
      !qp->connected || qp->rc_error) {
    return false;
  }
  const std::size_t mtu = fabric_.config().mtu_bytes;
  if (message.size() <= mtu) {
    return post_send(local_qp, std::move(message), tclass);
  }

  const std::size_t segments = (message.size() + mtu - 1) / mtu;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    ib::Packet pkt = make_packet(tclass, qp->peer_node, qp->pkey);
    pkt.bth.opcode = seg == 0 ? ib::OpCode::kRcSendFirst
                     : seg + 1 == segments ? ib::OpCode::kRcSendLast
                                           : ib::OpCode::kRcSendMiddle;
    pkt.bth.dest_qp = qp->peer_qpn;
    pkt.bth.psn = qp->take_psn();
    pkt.meta.src_qp = qp->qpn;
    const std::size_t offset = seg * mtu;
    const std::size_t len = std::min(mtu, message.size() - offset);
    pkt.payload.assign(message.begin() + static_cast<long>(offset),
                       message.begin() + static_cast<long>(offset + len));
    ++qp->counters.sent;
    rc_submit(*qp, std::move(pkt));
  }
  return true;
}

bool ChannelAdapter::post_rdma_write(ib::Qpn local_qp, std::uint64_t remote_va,
                                     ib::RKeyValue rkey,
                                     std::vector<std::uint8_t> payload,
                                     ib::PacketMeta::TrafficClass tclass,
                                     bool ack_req) {
  QueuePair* qp = find_qp(local_qp);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection ||
      !qp->connected || qp->rc_error) {
    return false;
  }
  if (payload.size() > fabric_.config().mtu_bytes) return false;

  ib::Packet pkt = make_packet(tclass, qp->peer_node, qp->pkey);
  pkt.bth.opcode = ib::OpCode::kRcRdmaWriteOnly;
  pkt.bth.dest_qp = qp->peer_qpn;
  pkt.bth.psn = qp->take_psn();
  pkt.bth.ack_req = ack_req;
  pkt.meta.src_qp = qp->qpn;
  pkt.reth = ib::Reth{remote_va, rkey,
                      static_cast<std::uint32_t>(payload.size())};
  pkt.payload = std::move(payload);

  ++qp->counters.sent;
  rc_submit(*qp, std::move(pkt));
  return true;
}

bool ChannelAdapter::post_rdma_read(ib::Qpn local_qp, std::uint64_t remote_va,
                                    ib::RKeyValue rkey, std::uint32_t length,
                                    ib::PacketMeta::TrafficClass tclass) {
  QueuePair* qp = find_qp(local_qp);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection ||
      !qp->connected || qp->rc_error) {
    return false;
  }
  if (length > fabric_.config().mtu_bytes) return false;

  ib::Packet pkt = make_packet(tclass, qp->peer_node, qp->pkey);
  pkt.bth.opcode = ib::OpCode::kRcRdmaReadRequest;
  pkt.bth.dest_qp = qp->peer_qpn;
  pkt.bth.psn = qp->take_psn();
  pkt.meta.src_qp = qp->qpn;
  pkt.reth = ib::Reth{remote_va, rkey, length};

  outstanding_reads_[{local_qp, pkt.bth.psn}] = {remote_va, length};
  ++qp->counters.sent;
  rc_submit(*qp, std::move(pkt));
  return true;
}

void ChannelAdapter::sign_and_send(ib::Packet&& pkt) {
  if (authenticator_ == nullptr || !authenticator_->sign(pkt)) {
    pkt.bth.resv8a = 0;
    pkt.finalize();
  }
  fabric_.hca(node_).send(std::move(pkt));
}

void ChannelAdapter::inject_raw(ib::Packet&& pkt) {
  fabric_.hca(node_).send(std::move(pkt));
}

void ChannelAdapter::send_mad(int dst_node, const Mad& mad) {
  ib::Packet pkt =
      make_packet(ib::PacketMeta::TrafficClass::kManagement, dst_node,
                  ib::kDefaultPKey);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.dest_qp = ib::kQp0SubnetManagement;
  pkt.deth = ib::Deth{0, ib::kQp0SubnetManagement};
  pkt.payload = mad.serialize();
  pkt.bth.resv8a = 0;
  pkt.finalize();
  fabric_.hca(node_).send(std::move(pkt));
}

void ChannelAdapter::deliver_local_mad(const Mad& mad) {
  ++counters_.mads_received;
  if (mad.type == MadType::kPortReconfigure) {
    handle_port_reconfigure(mad);
    return;
  }
  for (const MadHandler& handler : mad_handlers_) {
    if (handler(mad)) return;
  }
}

void ChannelAdapter::add_mad_handler(MadHandler handler) {
  mad_handlers_.push_back(std::move(handler));
}

std::uint32_t ChannelAdapter::port_attribute(std::uint32_t attr) const {
  const auto it = port_attributes_.find(attr);
  return it == port_attributes_.end() ? 0 : it->second;
}

void ChannelAdapter::on_packet(ib::Packet&& pkt) {
  // End-node link-layer integrity: corruption on the final hop (the
  // switch->HCA link) reaches us unchecked by any switch. That link clears
  // the verified flag when it corrupts, so a set flag means the bytes are
  // the ones a switch already checked.
  IBSEC_DCHECK(!pkt.meta.vcrc_verified || pkt.vcrc_valid());
  if (!pkt.meta.vcrc_verified && !pkt.vcrc_valid()) {
    retire_.vcrc->inc();
    trace_retire(pkt, "vcrc");
    return;
  }
  if (pkt.lrh.vl == ib::kManagementVl &&
      pkt.bth.dest_qp == ib::kQp0SubnetManagement) {
    retire_.mad->inc();
    trace_retire(pkt, "mad");
    handle_mad_packet(pkt);
    return;
  }
  handle_data_packet(std::move(pkt));
}

void ChannelAdapter::handle_mad_packet(const ib::Packet& pkt) {
  ++counters_.mads_received;
  const auto mad = Mad::parse(pkt.payload);
  if (!mad) return;
  if (mad->type == MadType::kPortReconfigure) {
    handle_port_reconfigure(*mad);
    return;
  }
  for (const MadHandler& handler : mad_handlers_) {
    if (handler(*mad)) return;
  }
}

bool ChannelAdapter::handle_port_reconfigure(const Mad& mad) {
  // The key is the *only* authority check (IBA semantics): attributes below
  // kBaseboardAttributeBase are subnet-management state gated by the M_Key;
  // attributes at/above it are baseboard (hardware) state gated by the
  // B_Key. Whoever holds the key — legitimately or through packet capture —
  // can rewrite the state (paper Table 3, M_Key/B_Key rows).
  const bool is_baseboard = mad.attribute >= kBaseboardAttributeBase;
  const std::uint64_t required =
      is_baseboard ? node_keys_.b_key : node_keys_.m_key;
  if (mad.m_key != required) {
    ++counters_.reconfigs_rejected;
    return false;
  }
  port_attributes_[mad.attribute] = mad.value;
  ++counters_.reconfigs_applied;
  return true;
}

void ChannelAdapter::handle_data_packet(ib::Packet&& pkt) {
  // 1. Partition enforcement at the end node (always present in IBA).
  if (!partition_table_.contains(pkt.bth.pkey)) {
    if (sm_node_ >= 0) {
      Mad trap;
      trap.type = MadType::kTrapPKeyViolation;
      trap.src_node = static_cast<std::uint16_t>(node_);
      trap.pkey = pkt.bth.pkey;
      trap.src_qp = pkt.deth ? pkt.deth->src_qp : 0;
      // The violating sender's node is identified by the packet's SLID.
      trap.value = pkt.lrh.slid;
      ++counters_.traps_sent;
      send_mad(sm_node_, trap);
    }
    retire_.pkey_violation->inc();
    if (fabric_.simulator().audit().enabled()) {
      obs::AuditEvent ev = audit_event(pkt);
      ev.verdict = "rejected";
      ev.a0 = static_cast<std::int64_t>(pkt.bth.pkey);
      fabric_.simulator().audit().emit("pkey_reject", ev);
    }
    trace_retire(pkt, "pkey_violation");
    return;
  }

  // 2. Authentication (the paper's mechanism). Without an authenticator the
  // plain ICRC is checked as ordinary error detection.
  if (authenticator_ != nullptr) {
    const AuthVerdict verdict = authenticator_->verify(pkt);
    // One mac_fail audit event per rejection, verdict naming the cause —
    // forensics separates replay bursts from tag-forgery scans by it.
    const auto audit_mac_fail = [&](std::string_view cause) {
      sim::Simulator& sim = fabric_.simulator();
      if (!sim.audit().enabled()) return;
      obs::AuditEvent ev = audit_event(pkt);
      ev.verdict = cause;
      ev.a0 = static_cast<std::int64_t>(pkt.bth.psn);
      sim.audit().emit("mac_fail", ev);
    };
    switch (verdict) {
      case AuthVerdict::kAccept:
        break;
      case AuthVerdict::kNotAuthenticated:
        retire_.auth_missing->inc();
        audit_mac_fail("unauthenticated");
        trace_retire(pkt, "auth_missing");
        return;
      case AuthVerdict::kRejectBadTag:
      case AuthVerdict::kRejectNoKey:
      case AuthVerdict::kRejectReplay:
        retire_.auth_rejected->inc();
        audit_mac_fail(verdict == AuthVerdict::kRejectBadTag  ? "bad_tag"
                       : verdict == AuthVerdict::kRejectNoKey ? "no_key"
                                                              : "replay");
        trace_retire(pkt, "auth_rejected");
        return;
    }
  } else if (pkt.bth.resv8a == 0 && !pkt.icrc_valid()) {
    retire_.icrc_error->inc();
    trace_retire(pkt, "icrc_error");
    return;
  }

  // 3. RC reliability gate: with the protocol enabled, every RC request
  // against a bound QP is sequenced here. In-order arrivals advance
  // expected_psn and fall through to normal processing (rc_qp remembers the
  // accepting QP for the ACK decision at the end); duplicates are re-acked
  // and retired; out-of-order arrivals are dropped with one NAK per gap
  // (go-back-N keeps the responder strictly in order).
  QueuePair* rc_qp = nullptr;
  if (rc_config_.enabled && is_rc_request(pkt.bth.opcode)) {
    QueuePair* qp = find_qp(pkt.bth.dest_qp);
    if (qp != nullptr && qp->type == ServiceType::kReliableConnection &&
        qp->connected) {
      if (pkt.bth.psn == qp->expected_psn) {
        qp->expected_psn = (qp->expected_psn + 1) & ib::kPsnMask;
        qp->rc_rx.nak_armed = false;
        rc_qp = qp;
      } else if (psn_lt(pkt.bth.psn, qp->expected_psn)) {
        retire_.rc_duplicate->inc();
        trace_retire(pkt, "rc_duplicate");
        if (pkt.bth.opcode == ib::OpCode::kRcRdmaReadRequest) {
          // The earlier response was lost: rebuild and resend it.
          serve_rdma_read(pkt, /*duplicate=*/true);
        } else {
          schedule_rc_ack(*qp, /*force=*/true);
        }
        return;
      } else {
        ++counters_.rc_out_of_order;
        retire_.rc_out_of_order->inc();
        trace_retire(pkt, "rc_out_of_order");
        send_rc_nak(*qp);
        return;
      }
    }
  }

  // 4. RDMA executes against the memory table without QP involvement.
  if (pkt.bth.opcode == ib::OpCode::kRcRdmaWriteOnly) {
    apply_rdma_write(pkt);
    if (rc_qp != nullptr) {
      schedule_rc_ack(*rc_qp, pkt.bth.ack_req);
    } else {
      maybe_send_ack(pkt);
    }
    return;
  }
  if (pkt.bth.opcode == ib::OpCode::kRcRdmaReadRequest) {
    // The response itself is the acknowledgement — no separate ACK.
    serve_rdma_read(pkt);
    return;
  }
  if (pkt.bth.opcode == ib::OpCode::kRcRdmaReadResponse) {
    retire_.rdma_read_response->inc();
    trace_retire(pkt, "rdma_read_response");
    if (rc_config_.enabled) rc_on_read_response(pkt);
    complete_rdma_read(pkt);
    return;
  }
  if (pkt.bth.opcode == ib::OpCode::kRcAck) {
    {
      sim::Simulator& sim = fabric_.simulator();
      if (sim.trace().enabled() && pkt.meta.trace_id != 0) {
        sim.trace().instant(pkt.meta.trace_id, obs::TraceEventType::kRcAck,
                            node_, sim.now(),
                            !pkt.aeth                       ? "malformed"
                            : pkt.aeth->syndrome == kAethAck ? "ack"
                                                             : "nak");
      }
    }
    handle_rc_ack(pkt);
    return;
  }

  // 5. SEND delivery: locate the destination QP; UD checks the Q_Key.
  QueuePair* qp = find_qp(pkt.bth.dest_qp);
  if (qp == nullptr) {
    retire_.no_dest_qp->inc();
    trace_retire(pkt, "no_dest_qp");
    return;
  }
  if (qp->type == ServiceType::kUnreliableDatagram) {
    if (!pkt.deth || pkt.deth->qkey != qp->qkey) {
      qkey_drop_counter(*qp).inc();
      retire_.qkey_violation->inc();
      if (fabric_.simulator().audit().enabled()) {
        obs::AuditEvent ev = audit_event(pkt);
        ev.verdict = "rejected";
        ev.a0 = pkt.deth
                    ? static_cast<std::int64_t>(pkt.deth->qkey)
                    : -1;
        fabric_.simulator().audit().emit("qkey_reject", ev);
      }
      trace_retire(pkt, "qkey_violation");
      return;
    }
  } else if (!rc_config_.enabled) {
    track_rc_psn(pkt, *qp);
  }
  ++qp->counters.received;
  retire_.delivered->inc();
  trace_retire(pkt, nullptr);
  if (probe_) probe_(pkt);
  if (receive_handler_) receive_handler_(pkt, *qp);

  // Message assembly: SEND-only delivers immediately; First/Middle/Last
  // reassemble in arrival order (RC is PSN-ordered on this lossless fabric).
  switch (pkt.bth.opcode) {
    case ib::OpCode::kRcSendOnly:
    case ib::OpCode::kUdSendOnly:
      ++counters_.messages_delivered;
      if (message_handler_) message_handler_(pkt.payload, *qp);
      break;
    case ib::OpCode::kRcSendFirst: {
      Reassembly& r = reassembly_[qp->qpn];
      if (r.active) ++counters_.reassembly_errors;  // abandoned message
      r.active = true;
      r.data = pkt.payload;
      break;
    }
    case ib::OpCode::kRcSendMiddle: {
      Reassembly& r = reassembly_[qp->qpn];
      if (!r.active) {
        ++counters_.reassembly_errors;
        break;
      }
      r.data.reserve(r.data.size() + pkt.payload.size());
      r.data.insert(r.data.end(), pkt.payload.begin(), pkt.payload.end());
      break;
    }
    case ib::OpCode::kRcSendLast: {
      Reassembly& r = reassembly_[qp->qpn];
      if (!r.active) {
        ++counters_.reassembly_errors;
        break;
      }
      r.data.reserve(r.data.size() + pkt.payload.size());
      r.data.insert(r.data.end(), pkt.payload.begin(), pkt.payload.end());
      r.active = false;
      ++counters_.messages_delivered;
      if (message_handler_) message_handler_(std::move(r.data), *qp);
      r.data.clear();
      break;
    }
    default:
      break;
  }
  if (rc_qp != nullptr) {
    schedule_rc_ack(*rc_qp, pkt.bth.ack_req);
  } else {
    maybe_send_ack(pkt);
  }
}

IBSEC_HOT void ChannelAdapter::track_rc_psn(const ib::Packet& pkt,
                                            QueuePair& qp) {
  // RC delivery is expected in PSN order (the lossless fabric preserves
  // per-VL FIFO); deviations are counted, not dropped — the simulator has
  // no retransmission path to exercise.
  if (pkt.bth.psn != qp.expected_psn) {
    ++counters_.rc_out_of_order;
  }
  qp.expected_psn = (pkt.bth.psn + 1) & ib::kPsnMask;
}

void ChannelAdapter::maybe_send_ack(const ib::Packet& pkt) {
  if (!pkt.bth.ack_req) return;
  QueuePair* qp = find_qp(pkt.bth.dest_qp);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection ||
      !qp->connected) {
    return;
  }
  ib::Packet ack = make_packet(ib::PacketMeta::TrafficClass::kBestEffort,
                               qp->peer_node, qp->pkey);
  ack.bth.opcode = ib::OpCode::kRcAck;
  ack.bth.dest_qp = qp->peer_qpn;
  ack.bth.psn = pkt.bth.psn;
  ack.meta.src_qp = qp->qpn;
  ack.aeth = ib::Aeth{0x00, pkt.bth.psn & 0x00FFFFFF};
  ++counters_.acks_sent;
  sign_and_send(std::move(ack));
}

void ChannelAdapter::serve_rdma_read(const ib::Packet& pkt, bool duplicate) {
  // Locate the requesting endpoint through the targeted RC QP's binding.
  // A duplicate request (retransmitted after its response was lost) was
  // already retired as rc_duplicate: the response is rebuilt and resent but
  // no counters move, so served work stays exactly-once.
  QueuePair* qp = find_qp(pkt.bth.dest_qp);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection ||
      !qp->connected || !pkt.reth) {
    if (!duplicate) {
      retire_.rdma_rejected->inc();
      trace_retire(pkt, "rdma_rejected");
    }
    return;
  }
  ib::Packet resp = make_packet(ib::PacketMeta::TrafficClass::kBestEffort,
                                qp->peer_node, qp->pkey);
  resp.bth.opcode = ib::OpCode::kRcRdmaReadResponse;
  resp.bth.dest_qp = qp->peer_qpn;
  resp.bth.psn = pkt.bth.psn;  // echo so the requester can match
  resp.meta.src_qp = qp->qpn;

  const auto region = memory_table_.check_access(
      pkt.reth->rkey, pkt.reth->va, pkt.reth->dma_len, /*is_write=*/false);
  if (!region) {
    if (!duplicate) {
      retire_.rdma_nak->inc();
      trace_retire(pkt, "rdma_nak");
    }
    resp.aeth = ib::Aeth{0x60 /*NAK: remote access error*/, pkt.bth.psn};
  } else {
    if (!duplicate) {
      ++counters_.rdma_reads_served;
      retire_.delivered->inc();
      trace_retire(pkt, nullptr);
      if (probe_) probe_(pkt);
    }
    resp.aeth = ib::Aeth{0x00, pkt.bth.psn};
    const auto& buffer = memory_.at(pkt.reth->rkey);
    const std::size_t offset =
        static_cast<std::size_t>(pkt.reth->va - region->va_base);
    resp.payload.assign(buffer.begin() + static_cast<long>(offset),
                        buffer.begin() +
                            static_cast<long>(offset + pkt.reth->dma_len));
  }
  sign_and_send(std::move(resp));
}

void ChannelAdapter::complete_rdma_read(const ib::Packet& pkt) {
  const auto it = outstanding_reads_.find({pkt.bth.dest_qp, pkt.bth.psn});
  if (it == outstanding_reads_.end()) return;  // unsolicited response
  const std::uint64_t va = it->second.first;
  outstanding_reads_.erase(it);
  const bool ok = pkt.aeth && pkt.aeth->syndrome == 0x00;
  if (read_handler_) {
    read_handler_(pkt.bth.dest_qp, va, pkt.payload, ok);
  }
}

// --- RC reliability: sender side ---------------------------------------------

IBSEC_HOT void ChannelAdapter::rc_submit(QueuePair& qp, ib::Packet&& pkt) {
  if (!rc_config_.enabled) {
    sign_and_send(std::move(pkt));
    return;
  }
  // Posts queue behind earlier ones whenever the window is full — pending
  // order is PSN order, so release keeps the wire sequence intact.
  if (!qp.rc_tx.pending.empty() ||
      qp.rc_tx.window.size() >= rc_config_.max_outstanding) {
    // Window-full backpressure is the slow path by definition; the deque
    // only grows while the wire stays saturated. IBSEC_DETLINT_ALLOW(hot-alloc)
    qp.rc_tx.pending.push_back(std::move(pkt));
    return;
  }
  rc_transmit(qp, std::move(pkt));
}

IBSEC_HOT void ChannelAdapter::rc_transmit(QueuePair& qp, ib::Packet&& pkt) {
  IBSEC_CHECK(qp.rc_tx.window.size() < rc_config_.max_outstanding)
      << "RC window overflow on QP " << qp.qpn << ": "
      << qp.rc_tx.window.size() << " outstanding";
  const bool was_empty = qp.rc_tx.window.empty();
  const ib::Psn psn = pkt.bth.psn;
  ib::Packet copy = pkt;
  const bool inserted =
      qp.rc_tx.window
          .emplace(psn, RcSendEntry{std::move(pkt), fabric_.simulator().now()})
          .second;
  IBSEC_CHECK(inserted) << "PSN " << psn << " already in RC window of QP "
                        << qp.qpn;
  sign_and_send(std::move(copy));
  if (was_empty) arm_rc_timer(qp);
}

void ChannelAdapter::rc_release_pending(QueuePair& qp) {
  while (!qp.rc_tx.pending.empty() &&
         qp.rc_tx.window.size() < rc_config_.max_outstanding) {
    ib::Packet pkt = std::move(qp.rc_tx.pending.front());
    qp.rc_tx.pending.pop_front();
    rc_transmit(qp, std::move(pkt));
  }
  IBSEC_DCHECK(qp.rc_tx.pending.empty() ||
               qp.rc_tx.window.size() >= rc_config_.max_outstanding);
}

void ChannelAdapter::arm_rc_timer(QueuePair& qp) {
  // The event queue has no cancellation: bumping the generation makes every
  // previously scheduled timer for this QP a no-op.
  const std::uint64_t gen = ++qp.rc_tx.timer_generation;
  const ib::Qpn qpn = qp.qpn;
  fabric_.simulator().after(
      rc_backoff_timeout(rc_config_, qp.rc_tx.retry_count),
      [this, qpn, gen] { on_rc_timeout(qpn, gen); });
}

void ChannelAdapter::on_rc_timeout(ib::Qpn qpn, std::uint64_t generation) {
  QueuePair* qp = find_qp(qpn);
  if (qp == nullptr || qp->rc_tx.timer_generation != generation ||
      qp->rc_tx.window.empty()) {
    return;
  }
  ++qp->rc_tx.retry_count;
  IBSEC_DCHECK(qp->rc_tx.retry_count <= rc_config_.max_retries + 1);
  if (qp->rc_tx.retry_count > rc_config_.max_retries) {
    rc_fail(*qp);
    return;
  }
  rc_retransmit(*qp, qp->rc_tx.window.begin()->first);
  arm_rc_timer(*qp);
}

void ChannelAdapter::rc_retransmit(QueuePair& qp, ib::Psn from_psn) {
  // Go-back-N: every unacked request at or after from_psn goes out again,
  // re-signed (the stored copy is the pre-finalize packet).
  sim::Simulator& sim = fabric_.simulator();
  for (auto& [psn, entry] : qp.rc_tx.window) {
    if (psn_lt(psn, from_psn)) continue;
    rc_obs_.retransmits->inc();
    if (sim.trace().enabled() && entry.pkt.meta.trace_id != 0) {
      sim.trace().instant(entry.pkt.meta.trace_id,
                          obs::TraceEventType::kRcRetransmit, node_,
                          sim.now(), {}, static_cast<std::int64_t>(psn));
    }
    ib::Packet copy = entry.pkt;
    sign_and_send(std::move(copy));
  }
}

void ChannelAdapter::rc_fail(QueuePair& qp) {
  rc_obs_.retry_exhausted->inc();
  qp.rc_error = true;
  const ib::Psn oldest = qp.rc_tx.window.empty()
                             ? qp.next_psn
                             : qp.rc_tx.window.begin()->first;
  qp.rc_tx.window.clear();
  qp.rc_tx.pending.clear();
  ++qp.rc_tx.timer_generation;
  // Reads in flight on this QP will never complete.
  for (auto it = outstanding_reads_.begin();
       it != outstanding_reads_.end();) {
    if (it->first.first == qp.qpn) {
      it = outstanding_reads_.erase(it);
    } else {
      ++it;
    }
  }
  if (rc_error_handler_) rc_error_handler_(qp.qpn, oldest);
}

IBSEC_HOT void ChannelAdapter::handle_rc_ack(const ib::Packet& pkt) {
  if (!rc_config_.enabled) {
    retire_.ack->inc();
    return;
  }
  // Audits both gate outcomes: "rejected" for control packets the
  // fail-closed validation discards, "accepted" for spoofed ones that
  // cleared window entries anyway (the campaign's success signal).
  const auto audit_rc = [&](std::string_view verdict, std::int64_t a0) {
    sim::Simulator& sim = fabric_.simulator();
    if (!sim.audit().enabled()) return;
    obs::AuditEvent ev = audit_event(pkt);
    ev.verdict = verdict;
    ev.a0 = a0;
    sim.audit().emit("rc_spoofed_control", ev);
  };
  QueuePair* qp = find_qp(pkt.bth.dest_qp);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection ||
      !qp->connected || !pkt.aeth) {
    retire_.rc_bad_control->inc();
    audit_rc("rejected", -1);
    return;
  }
  // Clearing window entries on an attack-tagged control packet is the
  // adversary "earning" progress it shouldn't — the rc-spoof campaign's
  // success signal. Lazily resolved so attack-free runs never grow a
  // snapshot entry.
  const auto note_spoof = [&](const ib::Packet& p, std::size_t cleared) {
    if (!p.meta.is_attack || cleared == 0) return;
    obs::Counter*& spoofed = rc_obs_.spoofed_control_accepted;
    if (spoofed == nullptr) spoofed = &rc_spoofed_counter();
    spoofed->inc();
    audit_rc("accepted", static_cast<std::int64_t>(cleared));
  };

  const ib::Psn psn = pkt.aeth->msn & ib::kPsnMask;
  if (pkt.aeth->syndrome == kAethAck) {
    if (qp->rc_tx.window.empty()) {
      // Nothing outstanding: a stale duplicate of an earlier ACK.
      retire_.ack->inc();
      return;
    }
    if (rc_config_.validate_control && !psn_lt(psn, qp->next_psn)) {
      // Acknowledges PSNs never sent — forged or corrupted; never lets an
      // attacker clear a window they didn't earn.
      retire_.rc_bad_control->inc();
      audit_rc("rejected", static_cast<std::int64_t>(psn));
      return;
    }
    retire_.ack->inc();
    note_spoof(pkt, rc_ack_through(*qp, psn, /*inclusive=*/true));
    return;
  }
  if (pkt.aeth->syndrome == kAethNakPsnSequence) {
    if (rc_config_.validate_control && !psn_le(psn, qp->next_psn)) {
      retire_.rc_bad_control->inc();
      audit_rc("rejected", static_cast<std::int64_t>(psn));
      return;
    }
    retire_.nak->inc();
    // AETH.msn names the receiver's expected PSN: everything below it is
    // implicitly acknowledged, everything at/after it goes out again now.
    if (!qp->rc_tx.window.empty()) {
      note_spoof(pkt, rc_ack_through(*qp, psn, /*inclusive=*/false));
      if (!qp->rc_tx.window.empty()) {
        rc_retransmit(*qp, psn);
        arm_rc_timer(*qp);
      }
    }
    return;
  }
  retire_.rc_bad_control->inc();
  audit_rc("rejected", static_cast<std::int64_t>(psn));
}

obs::Counter& ChannelAdapter::rc_spoofed_counter() {
  return fabric_.simulator().obs().counter(
      "ca." + std::to_string(node_) + ".rc.spoofed_control_accepted");
}

IBSEC_HOT std::size_t ChannelAdapter::rc_ack_through(QueuePair& qp,
                                                     ib::Psn psn,
                                                     bool inclusive) {
  std::size_t retired = 0;
  bool progressed = false;
  auto it = qp.rc_tx.window.begin();
  while (it != qp.rc_tx.window.end()) {
    const bool covered =
        inclusive ? psn_le(it->first, psn) : psn_lt(it->first, psn);
    if (!covered) break;
    if (it->second.pkt.bth.opcode == ib::OpCode::kRcRdmaReadRequest) {
      // Cumulative ACKs never complete a read — only its response does.
      ++it;
      continue;
    }
    {
      sim::Simulator& sim = fabric_.simulator();
      if (sim.trace().enabled() && it->second.pkt.meta.trace_id != 0) {
        sim.trace().instant(it->second.pkt.meta.trace_id,
                            obs::TraceEventType::kRcComplete, node_,
                            sim.now(), {},
                            static_cast<std::int64_t>(it->first));
      }
    }
    it = qp.rc_tx.window.erase(it);
    ++retired;
    progressed = true;
  }
  if (progressed) rc_on_progress(qp);
  return retired;
}

void ChannelAdapter::rc_on_progress(QueuePair& qp) {
  qp.rc_tx.retry_count = 0;
  rc_release_pending(qp);
  if (qp.rc_tx.window.empty()) {
    ++qp.rc_tx.timer_generation;  // disarm
  } else {
    arm_rc_timer(qp);
  }
}

void ChannelAdapter::rc_on_read_response(const ib::Packet& pkt) {
  QueuePair* qp = find_qp(pkt.bth.dest_qp);
  if (qp == nullptr || qp->type != ServiceType::kReliableConnection) return;
  const auto it = qp->rc_tx.window.find(pkt.bth.psn);
  if (it == qp->rc_tx.window.end()) return;  // duplicate response
  sim::Simulator& sim = fabric_.simulator();
  if (sim.trace().enabled() && it->second.pkt.meta.trace_id != 0) {
    sim.trace().instant(it->second.pkt.meta.trace_id,
                        obs::TraceEventType::kRcComplete, node_, sim.now(),
                        "read", static_cast<std::int64_t>(it->first));
  }
  qp->rc_tx.window.erase(it);
  rc_on_progress(*qp);
}

// --- RC reliability: receiver side -------------------------------------------

void ChannelAdapter::schedule_rc_ack(QueuePair& qp, bool force) {
  ++qp.rc_rx.unacked;
  if (force || qp.rc_rx.unacked >= rc_config_.ack_coalesce) {
    send_rc_ack(qp);
    return;
  }
  if (qp.rc_rx.ack_scheduled) return;
  qp.rc_rx.ack_scheduled = true;
  const ib::Qpn qpn = qp.qpn;
  fabric_.simulator().after(rc_config_.ack_delay, [this, qpn] {
    QueuePair* q = find_qp(qpn);
    // ack_scheduled cleared means a coalesce-threshold ACK beat the timer.
    if (q != nullptr && q->rc_rx.ack_scheduled) send_rc_ack(*q);
  });
}

void ChannelAdapter::send_rc_ack(QueuePair& qp) {
  qp.rc_rx.unacked = 0;
  qp.rc_rx.ack_scheduled = false;
  // Cumulative: everything strictly below expected_psn has been accepted.
  const ib::Psn acked = (qp.expected_psn + ib::kPsnMask) & ib::kPsnMask;
  ib::Packet ack = make_packet(ib::PacketMeta::TrafficClass::kBestEffort,
                               qp.peer_node, qp.pkey);
  ack.bth.opcode = ib::OpCode::kRcAck;
  ack.bth.dest_qp = qp.peer_qpn;
  ack.bth.psn = acked;
  ack.meta.src_qp = qp.qpn;
  ack.aeth = ib::Aeth{kAethAck, acked};
  ++counters_.acks_sent;
  rc_obs_.acks->inc();
  sign_and_send(std::move(ack));
}

void ChannelAdapter::send_rc_nak(QueuePair& qp) {
  if (qp.rc_rx.nak_armed) return;  // one NAK per gap
  qp.rc_rx.nak_armed = true;
  ib::Packet nak = make_packet(ib::PacketMeta::TrafficClass::kBestEffort,
                               qp.peer_node, qp.pkey);
  nak.bth.opcode = ib::OpCode::kRcAck;
  nak.bth.dest_qp = qp.peer_qpn;
  nak.bth.psn = qp.expected_psn;
  nak.meta.src_qp = qp.qpn;
  nak.aeth = ib::Aeth{kAethNakPsnSequence, qp.expected_psn};
  rc_obs_.naks->inc();
  sign_and_send(std::move(nak));
}

std::uint64_t ChannelAdapter::qkey_drops(ib::Qpn qpn) const {
  const auto it = qkey_drop_obs_.find(qpn);
  return it == qkey_drop_obs_.end() ? 0 : it->second->value();
}

obs::Counter& ChannelAdapter::qkey_drop_counter(const QueuePair& qp) {
  auto it = qkey_drop_obs_.find(qp.qpn);
  if (it == qkey_drop_obs_.end()) {
    obs::Counter* c = &fabric_.simulator().obs().counter(
        "ca." + std::to_string(node_) + ".qp." + std::to_string(qp.qpn) +
        ".dropped_bad_qkey");
    it = qkey_drop_obs_.emplace(qp.qpn, c).first;
  }
  return *it->second;
}

void ChannelAdapter::apply_rdma_write(const ib::Packet& pkt) {
  if (!pkt.reth) {
    retire_.rdma_rejected->inc();
    trace_retire(pkt, "rdma_rejected");
    return;
  }
  const auto region = memory_table_.check_access(
      pkt.reth->rkey, pkt.reth->va,
      static_cast<std::uint32_t>(pkt.payload.size()), /*is_write=*/true);
  if (!region) {
    retire_.rdma_rejected->inc();
    trace_retire(pkt, "rdma_rejected");
    return;
  }
  auto& buffer = memory_[pkt.reth->rkey];
  const std::size_t offset =
      static_cast<std::size_t>(pkt.reth->va - region->va_base);
  std::copy(pkt.payload.begin(), pkt.payload.end(),
            buffer.begin() + static_cast<long>(offset));
  ++counters_.rdma_writes_applied;
  retire_.delivered->inc();
  trace_retire(pkt, nullptr);
  if (probe_) probe_(pkt);
}

}  // namespace ibsec::transport
