#include "fabric/switch.h"

#include "common/annotations.h"
#include "common/check.h"

namespace ibsec::fabric {
namespace {

/// The P_Key drop's row, whose audit verdict names the filter mode (kNone
/// never drops).
obs::Decision pkey_drop_decision(FilterMode mode) {
  if (mode == FilterMode::kIf) return obs::Decision::kSwitchIfDrop;
  if (mode == FilterMode::kSif) return obs::Decision::kSwitchSifDrop;
  return obs::Decision::kSwitchDptDrop;
}

}  // namespace

Switch::Switch(sim::Simulator& simulator, const FabricConfig& config, int id,
               int num_ports, std::size_t num_lids)
    : sim_(simulator),
      config_(config),
      id_(id),
      routes_(num_lids, -1),
      filter_(config, simulator, num_ports,
              "switch." + std::to_string(id) + ".filter", id) {
  auto& reg = simulator.obs();
  const std::string prefix = "switch." + std::to_string(id) + ".";
  obs_.forwarded = &reg.counter(prefix + "forwarded");
  obs_.drop_pkey = &reg.counter(prefix + "drop.pkey_mismatch");
  obs_.drop_no_route = &reg.counter(prefix + "drop.no_route");
  obs_.drop_vcrc = &reg.counter(prefix + "drop.vcrc");
  obs_.drop_rate_limited = &reg.counter(prefix + "drop.rate_limited");
  obs_.drop_dead = &reg.counter(prefix + "drop.dead");
  outputs_.reserve(static_cast<std::size_t>(num_ports));
  inputs_.resize(static_cast<std::size_t>(num_ports));
  for (int p = 0; p < num_ports; ++p) {
    outputs_.push_back(std::make_unique<OutputPort>(
        simulator, config.link,
        "sw" + std::to_string(id) + ".out" + std::to_string(p)));
  }
}

void Switch::set_ingress_port(int port, bool is_ingress) {
  filter_.set_ingress_port(port, is_ingress);
  if (ingress_limiters_.empty()) {
    ingress_limiters_.resize(static_cast<std::size_t>(num_ports()));
  }
  auto& slot = ingress_limiters_.at(static_cast<std::size_t>(port));
  if (is_ingress && config_.ingress_rate_limit_fraction > 0.0) {
    const double rate_bytes =
        static_cast<double>(config_.link.bandwidth_bps) / 8.0 *
        config_.ingress_rate_limit_fraction;
    slot = std::make_unique<TokenBucket>(rate_bytes,
                                         config_.ingress_rate_limit_burst);
  } else {
    slot.reset();
  }
}

void Switch::set_upstream(int port, OutputPort* upstream) {
  inputs_.at(static_cast<std::size_t>(port)) =
      InputPort(&sim_, config_.link, upstream);
}

void Switch::set_route(ib::Lid dlid, int port) {
  routes_.at(dlid) = port;
}

std::string Switch::name() const { return "switch-" + std::to_string(id_); }

IBSEC_HOT void Switch::packet_arrived(ib::Packet&& pkt, int in_port) {
  InputPort& input = inputs_.at(static_cast<std::size_t>(in_port));
  const ib::VirtualLane vl = pkt.lrh.vl;
  input.accept(pkt, vl);

  // A dead switch (FaultCampaign) eats everything before any processing.
  if (dead_) {
    sim_.record(obs::Decision::kSwitchDead, *obs_.drop_dead, pkt, id_);
    input.release(pkt, vl);
    return;
  }

  // Link-level integrity: a corrupted packet is dropped at the hop. The
  // CRC-16 pass runs only when a covered byte may have changed since the
  // last check (see PacketMeta::vcrc_verified); debug builds re-hash anyway
  // to prove the flag never hides a corruption.
  IBSEC_DCHECK(!pkt.meta.vcrc_verified || pkt.vcrc_valid());
  if (!pkt.meta.vcrc_verified) {
    if (!pkt.vcrc_valid()) {
      sim_.record(obs::Decision::kSwitchVcrc, *obs_.drop_vcrc, pkt, id_);
      input.release(pkt, vl);
      return;
    }
    pkt.meta.vcrc_verified = true;
  }

  // Ingress admission control (valid-P_Key flood defence, sec. 7); VL15 is
  // exempt so management always gets through.
  if (vl != ib::kManagementVl &&
      static_cast<std::size_t>(in_port) < ingress_limiters_.size()) {
    TokenBucket* limiter =
        ingress_limiters_[static_cast<std::size_t>(in_port)].get();
    if (limiter != nullptr &&
        !limiter->consume(pkt.wire_size(), sim_.now())) {
      sim_.record(obs::Decision::kSwitchRateLimited, *obs_.drop_rate_limited,
                  pkt, id_, static_cast<std::int64_t>(pkt.wire_size()),
                  in_port);
      input.release(pkt, vl);
      return;
    }
  }

  // Crossing latency plus any filtering lookup cycles. The filter decision
  // itself is made now (state when the packet entered), its cost is paid in
  // the pipeline delay. Management VL bypasses partition enforcement.
  SwitchPartitionFilter::Decision decision{true, 0};
  if (vl != ib::kManagementVl) {
    decision = filter_.check(in_port, pkt.bth.pkey);
  }
  const SimTime delay =
      config_.switch_cycle() *
      (config_.switch_pipeline_cycles + decision.lookup_cycles);
  // One span per crossing: pipeline latency plus the filter lookup, with
  // the filter verdict in the detail.
  if (sim_.trace().enabled()) {
    sim_.trace().span(pkt.meta.trace_id, obs::TraceEventType::kSwitch, id_,
                      sim_.now(), delay,
                      decision.allow ? "pass" : "pkey_fail");
  }

  // Park the packet in a pooled slot for the crossing; the slot returns to
  // the pool on every exit path below, so steady-state crossings schedule no
  // allocations.
  ib::Packet* slot = pool_.acquire(std::move(pkt));
  const bool allow = decision.allow;
  auto cross = [this, slot, in_port, allow] {
    InputPort& in = inputs_.at(static_cast<std::size_t>(in_port));
    const ib::VirtualLane pvl = slot->lrh.vl;
    if (!allow) {
      sim_.record(pkey_drop_decision(config_.filter_mode), *obs_.drop_pkey,
                  *slot, id_, static_cast<std::int64_t>(slot->bth.pkey),
                  in_port);
      in.release(*slot, pvl);
      pool_.release(slot);
      return;
    }
    const ib::Lid dlid = slot->lrh.dlid;
    const int out_port = dlid < routes_.size() ? routes_[dlid] : -1;
    if (out_port < 0 || out_port >= num_ports() || out_port == in_port) {
      sim_.record(obs::Decision::kSwitchNoRoute, *obs_.drop_no_route, *slot,
                  id_);
      in.release(*slot, pvl);
      pool_.release(slot);
      return;
    }
    obs_.forwarded->inc();

    // Hold input-buffer bytes until the packet starts on the output wire;
    // the release triggers the upstream credit return.
    ib::Packet to_send = std::move(*slot);
    pool_.release(slot);
    auto on_dispatch = [this, in_port](const ib::Packet& dispatched) {
      inputs_.at(static_cast<std::size_t>(in_port))
          .release(dispatched, dispatched.lrh.vl);
    };
    static_assert(OutputPort::DispatchHook::fits_inline<decltype(on_dispatch)>(),
                  "the dispatch hook must stay inside the queued packet's "
                  "inline storage");
    outputs_[static_cast<std::size_t>(out_port)]->enqueue(
        std::move(to_send), pvl, std::move(on_dispatch));
  };
  static_assert(sim::EventQueue::Callback::fits_inline<decltype(cross)>(),
                "the crossing capture must stay inside the event's inline "
                "storage — growing it past kInlineBytes re-introduces a heap "
                "allocation per switch crossing");
  sim_.after(delay, std::move(cross));
}

}  // namespace ibsec::fabric
