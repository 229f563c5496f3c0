// The simulation kernel: a clock plus an event queue.
//
// Components (links, switches, HCAs, the subnet manager, traffic sources)
// hold a Simulator& and schedule callbacks on it. One Simulator instance is
// strictly single-threaded; parallelism in this codebase happens only
// *across* independent Simulator instances (see common/thread_pool.h).
#pragma once

#include <cstdint>

#include "common/annotations.h"
#include "ib/packet.h"
#include "obs/audit.h"
#include "obs/decision.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace ibsec::sim {

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// This simulation's metrics registry (see obs/registry.h). One per
  /// Simulator so parallel sweep workers never share metric state.
  obs::Registry& obs() { return obs_; }
  const obs::Registry& obs() const { return obs_; }

  /// This simulation's packet-lifecycle trace recorder (see obs/trace.h).
  /// Disabled by default; instrumentation sites guard on trace().enabled()
  /// so an unconfigured recorder costs one inlined bool load.
  obs::TraceRecorder& trace() { return trace_; }
  const obs::TraceRecorder& trace() const { return trace_; }

  /// This simulation's security audit log (see obs/audit.h). Disabled by
  /// default; enforcement points guard on audit().enabled() so an
  /// unconfigured log costs one inlined bool load.
  obs::AuditLog& audit() { return audit_; }
  const obs::AuditLog& audit() const { return audit_; }

  /// Records one enforcement decision on `pkt` made at `node` (a switch id
  /// or CA node): bumps `counter`, then emits the row's audit event and
  /// writes its trace instant, each only when its sink is enabled. `a0` is
  /// the audit event's detail value; `port` is the switch ingress port,
  /// which only a switch row's audit header carries. With both sinks off
  /// this is a counter increment and two enabled() loads.
  IBSEC_HOT void record(obs::Decision kind, obs::Counter& counter,
                        const ib::Packet& pkt, int node, std::int64_t a0 = 0,
                        int port = -1) {
    counter.inc();
    const obs::DecisionRow& row = obs::decision_row(kind);
    if (!row.audit_type.empty() && audit_.enabled()) {
      const bool at_switch = row.site == obs::DecisionSite::kSwitch;
      obs::AuditEvent ev;
      ev.at = now_;
      ev.node = node;
      ev.actor_lid = static_cast<std::int32_t>(pkt.lrh.slid);
      ev.actor_qp = !at_switch && pkt.deth
                        ? static_cast<std::int32_t>(pkt.deth->src_qp)
                        : -1;
      ev.victim_lid = static_cast<std::int32_t>(pkt.lrh.dlid);
      ev.victim_qp = static_cast<std::int32_t>(pkt.bth.dest_qp);
      ev.port = at_switch ? port : -1;
      ev.trace_id = pkt.meta.trace_id;
      ev.a0 = a0;
      audit_.emit(kind, ev);
    }
    if (row.trace && trace_.enabled()) {
      trace_.instant(pkt.meta.trace_id, *row.trace, node, now_,
                     row.trace_detail);
    }
  }

  /// Schedules `fn` at absolute time `when` (must be >= now()). Forwards the
  /// raw callable so it is built in place inside the queue's slot pool.
  template <class F>
  IBSEC_HOT void at(SimTime when, F&& fn) {
    queue_.schedule(when < now_ ? now_ : when, std::forward<F>(fn));
  }

  /// Schedules `fn` `delay` after the current time.
  template <class F>
  IBSEC_HOT void after(SimTime delay, F&& fn) {
    queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue drains or the clock passes `end`.
  /// Events scheduled exactly at `end` are executed.
  void run_until(SimTime end) {
    while (!queue_.empty() && queue_.next_time() <= end) {
      step();
    }
    if (now_ < end) now_ = end;
  }

  /// Runs until the queue is empty.
  void run() {
    while (!queue_.empty()) step();
  }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return queue_.size(); }

 private:
  IBSEC_HOT void step() {
    queue_.pop_and_run([this](SimTime t) {
      now_ = t;
      ++events_processed_;
    });
  }

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
  obs::Registry obs_;
  obs::TraceRecorder trace_;
  obs::AuditLog audit_;
};

}  // namespace ibsec::sim
