#include "workload/attack_campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/spec_text.h"

namespace ibsec::workload {

namespace {

using spec_text::cut;
using spec_text::keys_distinct;
using spec_text::parse_int;
using spec_text::parse_time_us;
using spec_text::split;

bool kind_from_name(std::string_view name, AttackKind& out) {
  if (name == "scan") out = AttackKind::kScan;
  else if (name == "trap-forge") out = AttackKind::kTrapForge;
  else if (name == "rc-spoof") out = AttackKind::kRcSpoof;
  else if (name == "replay") out = AttackKind::kReplay;
  else if (name == "side-channel") out = AttackKind::kSideChannel;
  else return false;
  return true;
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Default attacking node: the highest-numbered node that is not the SM.
int default_attacker(const AttackContext& ctx) {
  const int n = ctx.fabric->node_count();
  for (int node = n - 1; node >= 0; --node) {
    if (node != ctx.sm_node) return node;
  }
  return 0;
}

/// Lowest-numbered honest node passing `extra_ok`, skipping the SM, the
/// DoS flooders and the excluded nodes. Falls back to any non-excluded node.
template <typename Pred>
int pick_victim(const AttackContext& ctx, std::vector<int> exclude,
                Pred extra_ok) {
  const int n = ctx.fabric->node_count();
  for (int node = 0; node < n; ++node) {
    if (node == ctx.sm_node || contains(exclude, node) ||
        contains(ctx.attacker_nodes, node)) {
      continue;
    }
    if (extra_ok(node)) return node;
  }
  for (int node = 0; node < n; ++node) {
    if (!contains(exclude, node)) return node;
  }
  return 0;
}

}  // namespace

const char* to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kScan: return "scan";
    case AttackKind::kTrapForge: return "trap-forge";
    case AttackKind::kRcSpoof: return "rc-spoof";
    case AttackKind::kReplay: return "replay";
    case AttackKind::kSideChannel: return "side-channel";
  }
  return "?";
}

std::optional<AttackCampaignSpec> AttackCampaignSpec::parse(
    std::string_view spec) {
  AttackCampaignSpec out;
  // Every entry but attack= may appear once.
  std::vector<std::string_view> once;
  for (std::string_view entry : split(spec, ';')) {
    if (entry.empty()) continue;
    std::string_view key, value;
    if (!cut(entry, '=', key, value)) return std::nullopt;
    if (key == "seed") {
      once.push_back(entry);
      if (!parse_int(value, out.seed)) return std::nullopt;
    } else if (key == "attack") {
      std::string_view name, subs;
      cut(value, ':', name, subs);
      AttackSpec a;
      if (!kind_from_name(name, a.kind)) return std::nullopt;
      const std::vector<std::string_view> sub_entries = split(subs, ',');
      if (!keys_distinct(sub_entries)) return std::nullopt;
      for (std::string_view sub : sub_entries) {
        std::string_view k, v;
        if (!cut(sub, '=', k, v)) return std::nullopt;
        std::uint64_t u = 0;
        if (k == "node") {
          if (!parse_int(v, a.node)) return std::nullopt;
        } else if (k == "victim") {
          if (!parse_int(v, a.victim)) return std::nullopt;
        } else if (k == "count") {
          if (!parse_int(v, a.count)) return std::nullopt;
        } else if (k == "interval") {
          if (!parse_time_us(v, a.interval)) return std::nullopt;
        } else if (k == "keyspace") {
          if (!parse_int(v, u) || u == 0) return std::nullopt;
          a.keyspace = u;
        } else if (k == "qpn-range") {
          if (!parse_int(v, u) || u == 0 || u > 0xFFFFFF) {
            return std::nullopt;
          }
          a.qpn_range = static_cast<std::uint32_t>(u);
        } else if (k == "epochs") {
          if (!parse_int(v, a.epochs) || a.epochs < 2) return std::nullopt;
        } else {
          return std::nullopt;
        }
      }
      out.attacks.push_back(a);
    } else {
      return std::nullopt;
    }
  }
  if (!keys_distinct(once)) return std::nullopt;
  return out;
}

std::string AttackCampaignSpec::to_string() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "seed=%llu",
                static_cast<unsigned long long>(seed));
  std::string out = buf;
  for (const AttackSpec& a : attacks) {
    std::snprintf(
        buf, sizeof(buf),
        ";attack=%s:node=%d,victim=%d,count=%llu,interval=%.9gus,"
        "keyspace=%llu,qpn-range=%u,epochs=%d",
        workload::to_string(a.kind), a.node, a.victim,
        static_cast<unsigned long long>(a.count),
        static_cast<double>(a.interval) / 1e6,
        static_cast<unsigned long long>(a.keyspace), a.qpn_range, a.epochs);
    out += buf;
  }
  return out;
}

std::string AttackCampaignSpec::describe() const {
  if (!enabled()) return "attack=off";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "attack seed=%llu campaigns=%zu [",
                static_cast<unsigned long long>(seed), attacks.size());
  std::string out = buf;
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    if (i > 0) out += ',';
    out += workload::to_string(attacks[i].kind);
  }
  out += ']';
  return out;
}

// --- base campaign -----------------------------------------------------------

AttackCampaign::AttackCampaign(AttackContext& ctx, AttackSpec spec,
                               std::uint16_t id, Rng rng)
    : ctx_(ctx), spec_(spec), id_(id), rng_(rng) {
  // Eager resolution is safe here: campaigns exist only when a spec enables
  // them, so baseline snapshots never see these names. Campaigns of the
  // same kind share the counters (fabric-wide aggregate, like "auth.*").
  auto& reg = ctx_.fabric->simulator().obs();
  const std::string base =
      std::string("attacker.") + workload::to_string(spec_.kind);
  obs_attempts_ = &reg.counter(base + ".attempts");
  obs_success_ = &reg.counter(base + ".success");
}

void AttackCampaign::on_delivered(int node, const ib::Packet& pkt) {
  (void)node;
  (void)pkt;
}

void AttackCampaign::observe(int node, const ib::Packet& pkt) {
  (void)node;
  (void)pkt;
}

sim::Simulator& AttackCampaign::simulator() {
  return ctx_.fabric->simulator();
}

void AttackCampaign::record_attempt() {
  ++attempts_;
  obs_attempts_->inc();
}

void AttackCampaign::record_success(std::uint64_t n) {
  if (n == 0) return;
  successes_ += n;
  obs_success_->inc(n);
}

void AttackCampaign::tag(ib::Packet& pkt) const {
  pkt.meta.is_attack = true;
  pkt.meta.attack_campaign = id_;
}

namespace {

// --- scan: Q_Key guessing against a victim UD QP -----------------------------
//
// The probe carries the victim's *valid* partition P_Key (so it passes
// every switch filter and the CA partition check) and a Q_Key guess drawn
// from a keyspace of `keyspace` values containing the true key. Without
// authentication the success rate is ~1/keyspace; with partition-level
// authentication the attacker has no MAC key, so every probe dies at the
// auth check before the Q_Key is even considered.
class ScanCampaign final : public AttackCampaign {
 public:
  using AttackCampaign::AttackCampaign;

  void start(SimTime at) override {
    attacker_ = spec_.node >= 0 ? spec_.node : default_attacker(ctx_);
    const auto part_of = [this](int node) {
      return ctx_.node_partition[static_cast<std::size_t>(node)];
    };
    // Same-partition victim: the probe P_Key is then also legal at the
    // attacker's own ingress port under IF/SIF.
    victim_ = spec_.victim >= 0
                  ? spec_.victim
                  : pick_victim(ctx_, {attacker_}, [&](int node) {
                      return part_of(node) == part_of(attacker_);
                    });
    victim_qp_ = ctx_.ud_qp_of_node[static_cast<std::size_t>(victim_)];
    pkey_ = ctx_.partition_pkeys[static_cast<std::size_t>(part_of(victim_))];
    const transport::QueuePair* qp =
        ctx_.cas[static_cast<std::size_t>(victim_)]->find_qp(victim_qp_);
    IBSEC_CHECK(qp != nullptr) << "scan victim has no workload UD QP";
    true_qkey_ = qp->qkey;
    interval_ = spec_.interval > 0 ? spec_.interval
                                   : SimTime{500'000};  // 0.5 us
    simulator().at(at, [this] { tick(); });
  }

  void on_delivered(int node, const ib::Packet& pkt) override {
    (void)node;
    (void)pkt;
    record_success();
  }

 private:
  void tick() {
    if (stopped_ || attempts() >= spec_.count) return;
    auto& fabric = *ctx_.fabric;
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.sl = pkt.lrh.vl;
    pkt.lrh.slid = fabric.lid_of_node(attacker_);
    pkt.lrh.dlid = fabric.lid_of_node(victim_);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = pkey_;
    pkt.bth.dest_qp = victim_qp_;
    pkt.bth.psn = static_cast<ib::Psn>(attempts() & ib::kPsnMask);
    // Guess uniformly from a keyspace of `keyspace` values that contains
    // the true key (draw 0 hits it): the brute-force model.
    const auto draw = static_cast<ib::QKeyValue>(rng_.uniform(spec_.keyspace));
    pkt.deth = ib::Deth{true_qkey_ ^ draw,
                        ctx_.ud_qp_of_node[static_cast<std::size_t>(attacker_)]};
    pkt.payload = simulator().packets().buffer(64);
    pkt.payload.assign(64, 0xA7);
    pkt.meta.created_at = simulator().now();
    pkt.meta.src_node = static_cast<std::uint32_t>(attacker_);
    pkt.meta.dst_node = static_cast<std::uint32_t>(victim_);
    pkt.meta.traffic_class = ib::PacketMeta::TrafficClass::kBestEffort;
    tag(pkt);
    pkt.finalize();
    ctx_.cas[static_cast<std::size_t>(attacker_)]->inject_raw(std::move(pkt));
    record_attempt();
    simulator().after(interval_, [this] { tick(); });
  }

  int attacker_ = 0;
  int victim_ = 0;
  ib::Qpn victim_qp_ = 0;
  ib::QKeyValue true_qkey_ = 0;
  ib::PKeyValue pkey_ = 0;
  SimTime interval_ = 0;
};

// --- trap-forge: weaponizing the SIF activation path -------------------------
//
// Each forged kTrapPKeyViolation MAD claims the victim "offended" with the
// victim's own partition P_Key. An SM that believes it installs that P_Key
// as *invalid* at the victim's ingress port — blackholing the victim's
// legitimate traffic. Trap validation rejects any trap whose reported P_Key
// is one the claimed offender legitimately holds.
class TrapForgeCampaign final : public AttackCampaign {
 public:
  using AttackCampaign::AttackCampaign;

  void start(SimTime at) override {
    attacker_ = spec_.node >= 0 ? spec_.node : default_attacker(ctx_);
    victim_ = spec_.victim >= 0
                  ? spec_.victim
                  : pick_victim(ctx_, {attacker_}, [](int) { return true; });
    interval_ = spec_.interval > 0 ? spec_.interval
                                   : SimTime{2'000'000};  // 2 us
    baseline_poisoned_ = ctx_.sm->poisoned_installs();
    simulator().at(at, [this] { tick(); });
  }

  void finish() override {
    // Success = forged traps the SM accepted and turned into poisoned
    // filter installs (0 whenever trap validation is on).
    record_success(ctx_.sm->poisoned_installs() - baseline_poisoned_);
  }

 private:
  void tick() {
    if (stopped_ || attempts() >= spec_.count) return;
    transport::Mad trap;
    trap.type = transport::MadType::kTrapPKeyViolation;
    trap.src_node = static_cast<std::uint16_t>(attacker_);
    // The forgery: name the victim as offender, with its own legal P_Key.
    trap.value = ctx_.fabric->lid_of_node(victim_);
    trap.pkey = ctx_.partition_pkeys[static_cast<std::size_t>(
        ctx_.node_partition[static_cast<std::size_t>(victim_)])];
    ctx_.cas[static_cast<std::size_t>(attacker_)]->send_mad(ctx_.sm_node,
                                                            trap);
    record_attempt();
    simulator().after(interval_, [this] { tick(); });
  }

  int attacker_ = 0;
  int victim_ = 0;
  SimTime interval_ = 0;
  std::uint64_t baseline_poisoned_ = 0;
};

// --- rc-spoof: forged ACK/NAK storm against live RC windows ------------------
//
// Random 24-bit PSNs against a scanned QPN range on the victim. Success is
// counted at the victim CA: a spoofed control packet that cleared send-
// window entries it never earned (ca.*.rc.spoofed_control_accepted). With
// RcConfig::validate_control the per-attempt probability is ~window/2^24;
// without it a random "future" PSN flushes the whole window.
class RcSpoofCampaign final : public AttackCampaign {
 public:
  using AttackCampaign::AttackCampaign;

  void start(SimTime at) override {
    if (spec_.victim >= 0) {
      victim_ = spec_.victim;
    } else if (!ctx_.rc_stream_nodes.empty()) {
      victim_ = ctx_.rc_stream_nodes.front();
    } else {
      victim_ = pick_victim(ctx_, {}, [](int) { return true; });
    }
    attacker_ = spec_.node >= 0 ? spec_.node : default_attacker(ctx_);
    if (attacker_ == victim_) attacker_ = ctx_.sm_node == 0 ? 1 : 0;
    interval_ = spec_.interval > 0 ? spec_.interval
                                   : SimTime{1'000'000};  // 1 us
    baseline_spoofed_ =
        ctx_.cas[static_cast<std::size_t>(victim_)]->rc_spoofed_accepted();
    simulator().at(at, [this] { tick(); });
  }

  void finish() override {
    record_success(
        ctx_.cas[static_cast<std::size_t>(victim_)]->rc_spoofed_accepted() -
        baseline_spoofed_);
  }

 private:
  void tick() {
    if (stopped_ || attempts() >= spec_.count) return;
    auto& fabric = *ctx_.fabric;
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.sl = pkt.lrh.vl;
    pkt.lrh.slid = fabric.lid_of_node(attacker_);
    pkt.lrh.dlid = fabric.lid_of_node(victim_);
    pkt.bth.opcode = ib::OpCode::kRcAck;
    // The default P_Key is in every CA's table — the forged ACK reaches the
    // RC control handler without tripping the partition check.
    pkt.bth.pkey = ib::kDefaultPKey;
    pkt.bth.dest_qp = 2 + static_cast<ib::Qpn>(rng_.uniform(spec_.qpn_range));
    const auto psn = static_cast<ib::Psn>(rng_.next_u32() & ib::kPsnMask);
    pkt.bth.psn = psn;
    pkt.aeth = ib::Aeth{rng_.bernoulli(0.5) ? transport::kAethAck
                                            : transport::kAethNakPsnSequence,
                        psn};
    pkt.meta.created_at = simulator().now();
    pkt.meta.src_node = static_cast<std::uint32_t>(attacker_);
    pkt.meta.dst_node = static_cast<std::uint32_t>(victim_);
    pkt.meta.traffic_class = ib::PacketMeta::TrafficClass::kBestEffort;
    tag(pkt);
    pkt.finalize();
    ctx_.cas[static_cast<std::size_t>(attacker_)]->inject_raw(std::move(pkt));
    record_attempt();
    simulator().after(interval_, [this] { tick(); });
  }

  int attacker_ = 0;
  int victim_ = 0;
  SimTime interval_ = 0;
  std::uint64_t baseline_spoofed_ = 0;
};

// --- replay: verbatim re-injection of captured traffic -----------------------
//
// Captures honest UD packets as they are delivered at the victim and
// re-injects byte-identical copies from the attacker's node. The wire image
// (SLID included) is untouched, so an authentication tag computed by the
// original sender still verifies — only the per-(QP, sender) PSN replay
// window can tell the copy from the original.
class ReplayCampaign final : public AttackCampaign {
 public:
  using AttackCampaign::AttackCampaign;

  void start(SimTime at) override {
    victim_ = spec_.victim >= 0
                  ? spec_.victim
                  : pick_victim(ctx_, {}, [](int) { return true; });
    attacker_ = spec_.node >= 0 ? spec_.node : default_attacker(ctx_);
    if (attacker_ == victim_) attacker_ = ctx_.sm_node == 0 ? 1 : 0;
    interval_ = spec_.interval > 0 ? spec_.interval
                                   : SimTime{5'000'000};  // 5 us
    simulator().at(at, [this] { tick(); });
  }

  void observe(int node, const ib::Packet& pkt) override {
    if (node != victim_ || captured_.size() >= kMaxCaptured) return;
    if (pkt.bth.opcode != ib::OpCode::kUdSendOnly || !pkt.deth) return;
    captured_.push_back(pkt);
  }

  void on_delivered(int node, const ib::Packet& pkt) override {
    (void)node;
    (void)pkt;
    record_success();
  }

 private:
  void tick() {
    if (stopped_ || attempts() >= spec_.count) return;
    if (!captured_.empty()) {
      ib::Packet clone =
          simulator().packets().copy(captured_[next_ % captured_.size()]);
      ++next_;
      // Fresh simulation-side identity; the wire bytes (and therefore the
      // MAC tag in the ICRC field) stay exactly as captured — do NOT
      // re-finalize, that would overwrite the tag.
      clone.meta.created_at = simulator().now();
      clone.meta.injected_at = -1;
      clone.meta.delivered_at = -1;
      clone.meta.src_node = static_cast<std::uint32_t>(attacker_);
      clone.meta.message_id = 0;
      clone.meta.trace_id = 0;
      tag(clone);
      ctx_.cas[static_cast<std::size_t>(attacker_)]->inject_raw(
          std::move(clone));
      record_attempt();
    }
    simulator().after(interval_, [this] { tick(); });
  }

  static constexpr std::size_t kMaxCaptured = 64;
  int attacker_ = 0;
  int victim_ = 0;
  SimTime interval_ = 0;
  std::size_t next_ = 0;
  std::vector<ib::Packet> captured_;
};

// --- side-channel: latency probe across a shared mesh row --------------------
//
// The campaign itself drives the "secret": a seeded ON/OFF epoch pattern of
// full-rate victim traffic flowing east along the victim's mesh row. A
// second compromised node in the same row streams low-rate probes whose
// XY route crosses the same row links before turning off to a conspirator
// one row over — the conspirator timestamps each delivered probe. During
// ON epochs the shared row links are oversubscribed (wave 1.0 + probe 0.4
// of link rate) and probes queue behind wave packets, so their delivery
// latency jumps within a few packet slots; during OFF epochs the probe
// stream alone is far below capacity and latency sits at the uncontended
// floor. (Reading backpressure out of the attacker's *own* send queue — the
// obvious alternative — needs hundreds of microseconds of hop-by-hop credit
// propagation each way, which smears adjacent epochs together; the latency
// probe reacts and decays at queue timescales.) Classifying each epoch's
// mean probe latency against the midpoint threshold recovers the pattern.
// Ingress rate limiting clips both flows below link capacity at their very
// first hop, so the shared queues never build and the channel collapses to
// coin-flipping.
class SideChannelCampaign final : public AttackCampaign {
 public:
  using AttackCampaign::AttackCampaign;

  void start(SimTime at) override {
    const auto& cfg = ctx_.fabric->config();
    // The timing channel is built on XY-mesh row geometry (shared eastbound
    // row links); it does not generalize to fat-tree route tables.
    IBSEC_CHECK(cfg.topology.kind == fabric::TopologyKind::kMesh)
        << "side-channel campaign needs a mesh topology, got "
        << cfg.topology.to_string();
    // Effective dims: a "mesh:WxH" spec overrides the legacy config fields.
    const int w = cfg.topology.mesh_width > 0 ? cfg.topology.mesh_width
                                              : cfg.mesh_width;
    const int h = cfg.topology.mesh_height > 0 ? cfg.topology.mesh_height
                                               : cfg.mesh_height;
    IBSEC_CHECK(w >= 3 && h >= 2) << "side-channel campaign needs a mesh";

    // Victim: any honest node that is not at the east end of its row (its
    // wave must cross at least one row link).
    victim_ = spec_.victim >= 0
                  ? spec_.victim
                  : pick_victim(ctx_, {}, [w](int n) { return n % w < w - 1; });
    const int vx = victim_ % w;
    const int vy = victim_ / w;
    wave_sink_ = vy * w + (w - 1);  // east end of the victim's row

    // Probe sender: a second node in the victim's row whose eastbound route
    // shares the row links the wave saturates. Honor spec.node when it has
    // that geometry, else take the westmost eligible node.
    const auto probe_ok = [&](int n) {
      return n >= 0 && n != victim_ && n != ctx_.sm_node && n / w == vy &&
             n % w < w - 1;
    };
    attacker_ = probe_ok(spec_.node) ? spec_.node : -1;
    for (int x = 0; attacker_ < 0 && x < w; ++x) {
      if (probe_ok(vy * w + x)) attacker_ = vy * w + x;
    }
    IBSEC_CHECK(attacker_ >= 0) << "no eligible side-channel probe node";
    // Conspirator: one row off the wave sink, so probes cross the shared
    // row links, turn at the sink's switch, and deliver without touching
    // the sink's HCA.
    conspirator_ = (vy + 1 < h ? vy + 1 : vy - 1) * w + (w - 1);
    (void)vx;

    epoch_len_ = spec_.interval > 0 ? spec_.interval
                                    : 100 * time_literals::kMicrosecond;
    const std::int64_t wire_bytes =
        static_cast<std::int64_t>(cfg.mtu_bytes) + 34;
    const SimTime slot =
        serialization_time_ps(wire_bytes, cfg.link.bandwidth_bps);
    // Wave at 2/3 of link rate: with the probe's 0.4 the shared row links
    // run at ~1.07 during ON epochs — just enough oversubscription to keep
    // a standing queue (the latency signal), while the wave's backlog grows
    // so slowly that even consecutive ON epochs drain inside the next
    // epoch's guard interval. (A full-rate wave grows backlog at 0.4/slot
    // and its drain tail swamps the following OFF epoch.) Probe at 0.4:
    // below the attacker's contended share, so the probe stream itself
    // never accumulates.
    wave_interval_ = (slot * 3) / 2;
    probe_interval_ = (slot * 5) / 2;

    // Balanced secret: half the epochs ON, order shuffled by the seed.
    pattern_.assign(static_cast<std::size_t>(spec_.epochs), 0);
    for (std::size_t e = 0; e < pattern_.size() / 2; ++e) pattern_[e] = 1;
    for (std::size_t i = pattern_.size(); i > 1; --i) {
      std::swap(pattern_[i - 1], pattern_[rng_.uniform(i)]);
    }
    epoch_latency_ps_.assign(pattern_.size(), 0);
    epoch_probes_.assign(pattern_.size(), 0);

    start_at_ = at;
    end_at_ = at + static_cast<SimTime>(pattern_.size()) * epoch_len_;
    simulator().at(at, [this] {
      wave_tick();
      probe_tick();
    });
  }

  void on_delivered(int node, const ib::Packet& pkt) override {
    if (node != conspirator_) return;  // the wave sink drops its copies
    const SimTime created = pkt.meta.created_at;
    if (created < start_at_ || created >= end_at_) return;
    // Attribute by creation time: a probe delayed across an epoch boundary
    // still reports on the epoch whose contention delayed it. Guard
    // interval: drop probes from the first 30% of each epoch, where the
    // previous ON epoch's queue backlog is still draining.
    const SimTime into_epoch = (created - start_at_) % epoch_len_;
    if (into_epoch * 10 < epoch_len_ * 3) return;
    const auto e = static_cast<std::size_t>((created - start_at_) / epoch_len_);
    epoch_latency_ps_[e] +=
        static_cast<std::uint64_t>(simulator().now() - created);
    ++epoch_probes_[e];
  }

  void finish() override {
    // The attacker knows the modulation is balanced (half the epochs ON),
    // so the optimal decoder is a median split: the epochs/2 highest mean
    // latencies are classified ON. When the defense flattens the signal the
    // ranking is noise and the split is a coin flip per epoch.
    // Means are quantized to half packet slots before ranking: in a
    // store-and-forward fabric a probe either waited behind queued packets
    // (whole slots) or it did not, so sub-slot mean differences are decoder
    // noise, not signal. This is what makes the rate-limit defense land at
    // chance instead of being "decoded" from picosecond residue.
    const double half_slot = static_cast<double>(serialization_time_ps(
        static_cast<std::int64_t>(ctx_.fabric->config().mtu_bytes) + 34,
        ctx_.fabric->config().link.bandwidth_bps)) / 2.0;
    std::vector<double> means(pattern_.size(), 0.0);
    for (std::size_t e = 0; e < pattern_.size(); ++e) {
      if (epoch_probes_[e] > 0) {
        means[e] = std::floor(static_cast<double>(epoch_latency_ps_[e]) /
                              static_cast<double>(epoch_probes_[e]) /
                              half_slot);
      }
    }
    if (debug_epochs_) {
      for (std::size_t e = 0; e < pattern_.size(); ++e) {
        std::fprintf(stderr, "side-channel epoch=%zu on=%d probes=%llu "
                     "mean_half_slots=%.0f (%.2f us)\n",
                     e, pattern_[e],
                     static_cast<unsigned long long>(epoch_probes_[e]),
                     means[e],
                     epoch_probes_[e] > 0
                         ? static_cast<double>(epoch_latency_ps_[e]) /
                               static_cast<double>(epoch_probes_[e]) / 1e6
                         : 0.0);
      }
    }
    std::vector<std::size_t> order(pattern_.size());
    for (std::size_t e = 0; e < order.size(); ++e) order[e] = e;
    std::sort(order.begin(), order.end(), [&means](std::size_t a,
                                                   std::size_t b) {
      return means[a] != means[b] ? means[a] > means[b] : a < b;
    });
    std::vector<int> classified(pattern_.size(), 0);
    for (std::size_t r = 0; r < order.size() / 2; ++r) classified[order[r]] = 1;
    for (std::size_t e = 0; e < pattern_.size(); ++e) {
      record_attempt();
      if (classified[e] == pattern_[e]) record_success();
    }
  }

 private:
  /// Epoch index for the current instant, or -1 outside the window.
  int epoch_now() {
    const SimTime now = simulator().now();
    if (now < start_at_ || now >= end_at_) return -1;
    return static_cast<int>((now - start_at_) / epoch_len_);
  }

  void wave_tick() {
    const int e = epoch_now();
    if (stopped_ || e < 0) return;
    if (pattern_[static_cast<std::size_t>(e)] != 0) {
      // Wrong Q_Key on purpose: the wave exists to occupy row links, not to
      // deliver. The sink just counts dropped_bad_qkey.
      inject(victim_, wave_sink_, /*deliverable=*/false, 0xB0);
    }
    simulator().after(wave_interval_, [this] { wave_tick(); });
  }

  void probe_tick() {
    if (stopped_ || epoch_now() < 0) return;
    // The conspirator is compromised, so its Q_Key is attacker-known and
    // the probe delivers (on_delivered timestamps it).
    inject(attacker_, conspirator_, /*deliverable=*/true, 0xB1);
    simulator().after(probe_interval_, [this] { probe_tick(); });
  }

  /// A full-MTU packet from `src` to `dst` on the best-effort VL. Default
  /// P_Key so it passes every partition filter.
  void inject(int src, int dst, bool deliverable, std::uint8_t fill) {
    auto& fabric = *ctx_.fabric;
    const ib::Qpn dst_qp = ctx_.ud_qp_of_node[static_cast<std::size_t>(dst)];
    const transport::QueuePair* qp =
        ctx_.cas[static_cast<std::size_t>(dst)]->find_qp(dst_qp);
    const ib::QKeyValue qkey = qp != nullptr ? qp->qkey : 0u;
    ib::Packet pkt;
    pkt.lrh.vl = fabric::kBestEffortVl;
    pkt.lrh.sl = pkt.lrh.vl;
    pkt.lrh.slid = fabric.lid_of_node(src);
    pkt.lrh.dlid = fabric.lid_of_node(dst);
    pkt.bth.opcode = ib::OpCode::kUdSendOnly;
    pkt.bth.pkey = ib::kDefaultPKey;
    pkt.bth.dest_qp = dst_qp;
    pkt.bth.psn = static_cast<ib::Psn>(injected_ & ib::kPsnMask);
    ++injected_;
    pkt.deth = ib::Deth{deliverable ? qkey : qkey ^ 0x5A5A5A5Au, 2};
    const std::size_t mtu = fabric.config().mtu_bytes;
    pkt.payload = simulator().packets().buffer(mtu);
    pkt.payload.assign(mtu, fill);
    pkt.meta.created_at = simulator().now();
    pkt.meta.src_node = static_cast<std::uint32_t>(src);
    pkt.meta.dst_node = static_cast<std::uint32_t>(dst);
    pkt.meta.traffic_class = ib::PacketMeta::TrafficClass::kBestEffort;
    tag(pkt);
    pkt.finalize();
    ctx_.cas[static_cast<std::size_t>(src)]->inject_raw(std::move(pkt));
  }

  int attacker_ = 0;
  int victim_ = 0;
  int wave_sink_ = 0;     // east end of the victim's row
  int conspirator_ = 0;   // probe receiver, one row off the sink
  // Flip to dump per-epoch decoder input when tuning thresholds.
  static constexpr bool debug_epochs_ = false;
  SimTime epoch_len_ = 0;
  SimTime wave_interval_ = 0;
  SimTime probe_interval_ = 0;
  SimTime start_at_ = 0;
  SimTime end_at_ = 0;
  std::uint64_t injected_ = 0;
  std::vector<int> pattern_;  // 1 = victim transmits this epoch
  std::vector<std::uint64_t> epoch_latency_ps_;  // summed probe latencies
  std::vector<std::uint64_t> epoch_probes_;
};

}  // namespace

// --- the set -----------------------------------------------------------------

AttackCampaignSet::AttackCampaignSet(const AttackCampaignSpec& spec,
                                     AttackContext ctx)
    : ctx_(std::move(ctx)) {
  Rng root(spec.seed);
  std::uint16_t id = 1;
  for (const AttackSpec& a : spec.attacks) {
    switch (a.kind) {
      case AttackKind::kScan:
        campaigns_.push_back(
            std::make_unique<ScanCampaign>(ctx_, a, id, root.split()));
        break;
      case AttackKind::kTrapForge:
        campaigns_.push_back(
            std::make_unique<TrapForgeCampaign>(ctx_, a, id, root.split()));
        break;
      case AttackKind::kRcSpoof:
        campaigns_.push_back(
            std::make_unique<RcSpoofCampaign>(ctx_, a, id, root.split()));
        break;
      case AttackKind::kReplay:
        campaigns_.push_back(
            std::make_unique<ReplayCampaign>(ctx_, a, id, root.split()));
        break;
      case AttackKind::kSideChannel:
        campaigns_.push_back(
            std::make_unique<SideChannelCampaign>(ctx_, a, id, root.split()));
        break;
    }
    ++id;
  }
}

void AttackCampaignSet::start(SimTime base, Rng& stagger) {
  for (auto& campaign : campaigns_) {
    campaign->start(base + static_cast<SimTime>(stagger.uniform(1'000'000)));
  }
}

void AttackCampaignSet::stop() {
  for (auto& campaign : campaigns_) campaign->stop();
}

void AttackCampaignSet::finish() {
  for (auto& campaign : campaigns_) campaign->finish();
}

void AttackCampaignSet::on_delivered(int node, const ib::Packet& pkt) {
  if (pkt.meta.attack_campaign > 0) {
    const std::size_t idx =
        static_cast<std::size_t>(pkt.meta.attack_campaign) - 1;
    if (idx < campaigns_.size()) campaigns_[idx]->on_delivered(node, pkt);
    return;
  }
  if (pkt.meta.is_attack) return;  // legacy flooder traffic: nobody's
  for (auto& campaign : campaigns_) campaign->observe(node, pkt);
}

}  // namespace ibsec::workload
