// Security audit plane: a per-Simulator log of typed enforcement events.
//
// Where the metrics registry answers "how many packets were rejected?", the
// audit log answers "*which actor* did what to whom, and when" — the
// evidence a subnet administrator needs to attribute an adversarial
// campaign after the fact. Every enforcement point (Q_Key and P_Key
// checks, MAC verification, SM trap validation, the RC control-packet
// gate, switch-side SIF/IF/DPT drops and the ingress rate limiter) emits
// one AuditEvent per verdict, carrying simulated time, the actor and
// victim identities (LID + QPN), the enforcement port, a verdict string
// and the packet's trace id — the join key into the trace stream, so an
// incident reconstructed from the audit log can be cross-referenced with
// the full packet lifecycle when tracing was on.
//
// Every sim::Simulator owns one AuditLog (next to its obs::Registry and
// TraceRecorder — no globals, so parallel sweep workers never share audit
// state). Emission sites guard on `enabled()`, a single inlined bool load,
// so the plane is zero-cost for ordinary runs: no allocation, no
// branch-and-call, and — because the log registers no metrics — enabling
// it leaves registry snapshots byte-identical too.
//
// Event types and verdicts come from the decision table (obs/decision.h),
// one row per enforcement decision: sites emit by row, and a type named by
// literal is an AuditType, which only compiles when a row names it.
// docs/audit_schema.md documents the vocabulary; tests/test_decisions.cpp
// checks that it equals the table in types and verdicts, and that a short
// scenario emits every audited row.
//
// Storage is bounded either way, mirroring the trace recorder: the default
// mode keeps the *first* `capacity` events (drop-newest, counted), ring
// mode keeps the *last* `capacity` (evict-oldest, counted). The JSONL
// export — one JSON object per line, in record order, integer-only number
// formatting — is byte-deterministic for identical (topology, seed) runs;
// tests/test_determinism.cpp pins that alongside the metric snapshots.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/decision.h"

namespace ibsec::obs {

/// One enforcement verdict. `type` and `verdict` point at the decision
/// table's static strings (never runtime-built strings), so an event is
/// trivially copyable and emission never allocates.
///
/// Field conventions (-1 / 0 = not applicable for the event type):
///   node        the recording component: CA/HCA node id, or switch id for
///               switch-side events (disambiguated by the event type)
///   actor_lid   SLID of the packet that triggered the verdict — the
///               *claimed* source; forensics treats repeated offenders as
///               suspects, spoofed SLIDs as misdirection to expose
///   actor_qp    source QPN when the transport header carries one
///   victim_lid  DLID / the entity being protected (for sif_install, the
///               filtered source itself)
///   victim_qp   destination QPN
///   port        enforcement port (switch ingress port; -1 at CAs)
///   trace_id    PacketMeta::trace_id join key into the trace stream
///               (0 = untraced, ~0 = considered and sampled out)
///   a0          type-specific detail: the offending P_Key or Q_Key value,
///               the spoofed PSN, the rate-limit token deficit, ...
struct AuditEvent {
  std::string_view type;
  std::string_view verdict;
  SimTime at = 0;
  std::int32_t node = -1;
  std::int32_t actor_lid = -1;
  std::int32_t actor_qp = -1;
  std::int32_t victim_lid = -1;
  std::int32_t victim_qp = -1;
  std::int32_t port = -1;
  std::uint64_t trace_id = 0;
  std::int64_t a0 = 0;
};

struct AuditConfig {
  bool enabled = false;
  /// Bound on stored events (drop-newest, or evict-oldest in ring mode).
  std::size_t capacity = 1u << 18;
  /// Keep the newest events instead of the oldest (post-mortem tail).
  bool ring = false;
};

class AuditLog {
 public:
  AuditLog() = default;
  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Apply a configuration. Call before the simulation starts (existing
  /// events are kept, capacity is re-clamped).
  void configure(const AuditConfig& config);
  const AuditConfig& config() const { return config_; }

  /// The hot-path guard: every emission site checks this first.
  bool enabled() const { return config_.enabled; }

  /// Records one verdict of `type`; the caller sets `event.verdict`. No-op
  /// when disabled (sites guard on enabled() anyway; this keeps cold paths
  /// safe too).
  void emit(AuditType type, const AuditEvent& event);
  /// Records `kind`'s decision: type and verdict come from its row, which
  /// must name an audit type.
  void emit(Decision kind, const AuditEvent& event);

  // --- introspection ----------------------------------------------------------
  std::uint64_t events_recorded() const { return recorded_; }
  /// Events discarded past the cap (default mode).
  std::uint64_t events_dropped() const { return dropped_; }
  /// Events overwritten by newer ones (ring mode).
  std::uint64_t events_evicted() const { return evicted_; }

  /// Stored events in record order (ring unrolled oldest-first).
  std::vector<AuditEvent> events() const;

  /// JSONL export: one `{"t":...,"type":"...","verdict":"...",...}` object
  /// per line in record order. Byte-deterministic — all numbers format
  /// through obs/format.h, all strings are decision-table literals that
  /// need no escaping. Schema documented in docs/audit_schema.md.
  std::string to_jsonl() const;

 private:
  void record(const AuditEvent& event);

  AuditConfig config_;
  std::vector<AuditEvent> events_;
  std::size_t ring_head_ = 0;  // next overwrite slot in ring mode
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace ibsec::obs
