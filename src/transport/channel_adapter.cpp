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

/// An RC post needs a bound RC QP whose requester has not failed.
bool can_post_rc(const QueuePair* qp) {
  return qp != nullptr && qp->type == ServiceType::kReliableConnection &&
         qp->connected && !qp->requester.failed();
}

}  // namespace

ChannelAdapter::ChannelAdapter(fabric::Fabric& fabric, int node,
                               PkiDirectory& pki, std::uint64_t key_seed,
                               std::size_t rsa_bits)
    : fabric_(fabric),
      node_(node),
      pki_(pki),
      drbg_(key_seed ^ (0x1BA5EC0000ULL + static_cast<std::uint64_t>(node))),
      keypair_(crypto::rsa_generate(rsa_bits, drbg_)),
      rc_{.wire = *this,
          .sim = fabric.simulator(),
          .node = node,
          .retire = retire_,
          .counts = counters_} {
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
  retire_.ack = &reg.counter(prefix + "ack");
  retire_.nak = &reg.counter(prefix + "nak");
  retire_.no_dest_qp = &reg.counter(prefix + "no_dest_qp");
  retire_.qkey_violation = &reg.counter(prefix + "qkey_violation");
  retire_.delivered = &reg.counter(prefix + "delivered");
  retire_.rc_duplicate = &reg.counter(prefix + "rc_duplicate");
  retire_.rc_out_of_order = &reg.counter(prefix + "rc_out_of_order");
  retire_.rc_bad_control = &reg.counter(prefix + "rc_bad_control");
  const std::string rc_prefix = "ca." + std::to_string(node_) + ".rc.";
  rc_.obs.retransmits = &reg.counter(rc_prefix + "retransmits");
  rc_.obs.acks = &reg.counter(rc_prefix + "acks");
  rc_.obs.naks = &reg.counter(rc_prefix + "naks");
  rc_.obs.retry_exhausted = &reg.counter(rc_prefix + "retry_exhausted");
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
  QueuePair& qp = qps_.try_emplace(next_qpn_, rc_).first->second;
  qp.qpn = next_qpn_++;
  qp.type = type;
  qp.pkey = pkey;
  if (type == ServiceType::kUnreliableDatagram) {
    qp.qkey = static_cast<ib::QKeyValue>(drbg_.next_u64());
  }
  return qp;
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

ib::Packet ChannelAdapter::to_peer(const QueuePair& qp, ib::OpCode op,
                                   ib::Psn psn,
                                   ib::PacketMeta::TrafficClass tclass,
                                   SimTime created_at) {
  ib::Packet pkt = make_packet(tclass, qp.peer_node, qp.pkey, created_at);
  pkt.bth.opcode = op;
  pkt.bth.dest_qp = qp.peer_qpn;
  pkt.bth.psn = psn;
  pkt.meta.src_qp = qp.qpn;
  return pkt;
}

void ChannelAdapter::post_request(QueuePair& qp, ib::OpCode op,
                                  ib::PacketMeta::TrafficClass tclass,
                                  std::vector<std::uint8_t> payload,
                                  std::optional<ib::Reth> reth, bool ack_req,
                                  SimTime created_at) {
  ib::Packet pkt = to_peer(qp, op, qp.take_psn(), tclass, created_at);
  pkt.bth.ack_req = ack_req;
  pkt.reth = reth;
  pkt.payload = std::move(payload);
  ++qp.counters.sent;
  qp.requester.submit(std::move(pkt));
}

bool ChannelAdapter::post_send(ib::Qpn local_qp,
                               std::vector<std::uint8_t> payload,
                               ib::PacketMeta::TrafficClass tclass,
                               int dst_node, ib::Qpn dst_qp,
                               ib::QKeyValue remote_qkey, SimTime created_at) {
  QueuePair* qp = find_qp(local_qp);
  if (qp == nullptr || payload.size() > fabric_.config().mtu_bytes) {
    return false;
  }
  if (qp->type == ServiceType::kReliableConnection) {
    if (!can_post_rc(qp)) return false;
    post_request(*qp, ib::OpCode::kRcSendOnly, tclass, std::move(payload),
                 std::nullopt, false, created_at);
    return true;
  }
  if (dst_node < 0) return false;

  ib::Packet pkt = make_packet(tclass, dst_node, qp->pkey, created_at);
  pkt.bth.opcode = ib::OpCode::kUdSendOnly;
  pkt.bth.dest_qp = dst_qp;
  pkt.bth.psn = qp->take_psn();
  pkt.meta.src_qp = qp->qpn;
  pkt.deth = ib::Deth{remote_qkey, qp->qpn};
  pkt.payload = std::move(payload);
  ++qp->counters.sent;
  sign_and_send(std::move(pkt));
  return true;
}

bool ChannelAdapter::post_message(ib::Qpn local_qp,
                                  std::vector<std::uint8_t> message,
                                  ib::PacketMeta::TrafficClass tclass) {
  QueuePair* qp = find_qp(local_qp);
  if (!can_post_rc(qp)) return false;
  const std::size_t mtu = fabric_.config().mtu_bytes;
  if (message.size() <= mtu) {
    post_request(*qp, ib::OpCode::kRcSendOnly, tclass, std::move(message));
    return true;
  }
  sim::PacketPool& pool = fabric_.simulator().packets();
  const std::size_t segments = (message.size() + mtu - 1) / mtu;
  for (std::size_t seg = 0; seg < segments; ++seg) {
    const auto begin = message.begin() + static_cast<long>(seg * mtu);
    const auto end =
        seg + 1 == segments ? message.end() : begin + static_cast<long>(mtu);
    std::vector<std::uint8_t> segment =
        pool.buffer(static_cast<std::size_t>(end - begin));
    segment.assign(begin, end);
    post_request(*qp,
                 seg == 0               ? ib::OpCode::kRcSendFirst
                 : seg + 1 == segments ? ib::OpCode::kRcSendLast
                                       : ib::OpCode::kRcSendMiddle,
                 tclass, std::move(segment));
  }
  pool.recycle(std::move(message));
  return true;
}

bool ChannelAdapter::post_rdma_write(ib::Qpn local_qp, std::uint64_t remote_va,
                                     ib::RKeyValue rkey,
                                     std::vector<std::uint8_t> payload,
                                     ib::PacketMeta::TrafficClass tclass,
                                     bool ack_req) {
  QueuePair* qp = find_qp(local_qp);
  if (!can_post_rc(qp) || payload.size() > fabric_.config().mtu_bytes) {
    return false;
  }
  const auto length = static_cast<std::uint32_t>(payload.size());
  post_request(*qp, ib::OpCode::kRcRdmaWriteOnly, tclass, std::move(payload),
               ib::Reth{remote_va, rkey, length}, ack_req);
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
  pkt.payload = fabric_.simulator().packets().buffer(Mad::kWireSize);
  mad.serialize(pkt.payload);
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
    record(obs::Decision::kCaVcrc, *retire_.vcrc, pkt);
    return;
  }
  if (pkt.lrh.vl == ib::kManagementVl &&
      pkt.bth.dest_qp == ib::kQp0SubnetManagement) {
    record(obs::Decision::kCaMad, *retire_.mad, pkt);
    if (const auto mad = Mad::parse(pkt.payload)) {
      deliver_local_mad(*mad);
    } else {
      ++counters_.mads_received;  // unparseable: counted, never handled
    }
    return;
  }
  handle_data_packet(std::move(pkt));
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
    record(obs::Decision::kCaPkeyViolation, *retire_.pkey_violation, pkt,
           static_cast<std::int64_t>(pkt.bth.pkey));
    return;
  }

  // 2. Authentication (the paper's mechanism). Without an authenticator the
  // plain ICRC is checked as ordinary error detection.
  if (authenticator_ != nullptr) {
    // One mac_fail row per rejection cause: forensics separates replay
    // bursts from tag-forgery scans by the verdict.
    const auto psn = static_cast<std::int64_t>(pkt.bth.psn);
    switch (authenticator_->verify(pkt)) {
      case AuthVerdict::kAccept:
        break;
      case AuthVerdict::kNotAuthenticated:
        record(obs::Decision::kCaAuthMissing, *retire_.auth_missing, pkt, psn);
        return;
      case AuthVerdict::kRejectBadTag:
        record(obs::Decision::kCaAuthBadTag, *retire_.auth_rejected, pkt, psn);
        return;
      case AuthVerdict::kRejectNoKey:
        record(obs::Decision::kCaAuthNoKey, *retire_.auth_rejected, pkt, psn);
        return;
      case AuthVerdict::kRejectReplay:
        record(obs::Decision::kCaAuthReplay, *retire_.auth_rejected, pkt, psn);
        return;
    }
  } else if (pkt.bth.resv8a == 0 && !pkt.icrc_valid()) {
    record(obs::Decision::kCaIcrcError, *retire_.icrc_error, pkt);
    return;
  }

  // 3. The destination QP, looked up once. RC control goes to its
  // requester; RC requests pass its responder's PSN gate.
  QueuePair* qp = find_qp(pkt.bth.dest_qp);
  if (pkt.bth.opcode == ib::OpCode::kRcAck) {
    RcRequester::on_ack(rc_, qp, pkt);
    return;
  }
  if (qp != nullptr &&
      qp->responder.admit(pkt) == RcResponder::Verdict::kDrop) {
    return;
  }

  // 4. RDMA WRITE executes against the memory table without QP involvement.
  if (pkt.bth.opcode == ib::OpCode::kRcRdmaWriteOnly) {
    apply_rdma_write(pkt);
    if (qp != nullptr) qp->responder.acknowledge(pkt);
    return;
  }

  // 5. SEND delivery; UD checks the Q_Key.
  if (qp == nullptr) {
    record(obs::Decision::kCaNoDestQp, *retire_.no_dest_qp, pkt);
    return;
  }
  if (qp->type == ServiceType::kUnreliableDatagram &&
      (!pkt.deth || pkt.deth->qkey != qp->qkey)) {
    qkey_drop_counter(*qp).inc();
    record(obs::Decision::kCaQkeyViolation, *retire_.qkey_violation, pkt,
           pkt.deth ? static_cast<std::int64_t>(pkt.deth->qkey) : -1);
    return;
  }
  ++qp->counters.received;
  record(obs::Decision::kCaDelivered, *retire_.delivered, pkt);
  if (probe_) probe_(pkt);
  if (receive_handler_) receive_handler_(pkt, *qp);
  // SEND-only delivers at once; First/Middle/Last go through reassembly.
  if (pkt.bth.opcode == ib::OpCode::kRcSendOnly ||
      pkt.bth.opcode == ib::OpCode::kUdSendOnly) {
    ++counters_.messages_delivered;
    if (message_handler_) message_handler_(pkt.payload, *qp);
  } else if (const std::vector<std::uint8_t>* message =
                 qp->responder.reassemble(pkt)) {
    ++counters_.messages_delivered;
    if (message_handler_) message_handler_(*message, *qp);
  }
  qp->responder.acknowledge(pkt);
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
    record(obs::Decision::kCaRdmaRejected, *retire_.rdma_rejected, pkt);
    return;
  }
  const auto region = memory_table_.check_access(
      pkt.reth->rkey, pkt.reth->va,
      static_cast<std::uint32_t>(pkt.payload.size()));
  if (!region) {
    record(obs::Decision::kCaRdmaRejected, *retire_.rdma_rejected, pkt);
    return;
  }
  auto& buffer = memory_[pkt.reth->rkey];
  const std::size_t offset =
      static_cast<std::size_t>(pkt.reth->va - region->va_base);
  std::copy(pkt.payload.begin(), pkt.payload.end(),
            buffer.begin() + static_cast<long>(offset));
  ++counters_.rdma_writes_applied;
  record(obs::Decision::kCaDelivered, *retire_.delivered, pkt);
  if (probe_) probe_(pkt);
}

}  // namespace ibsec::transport
