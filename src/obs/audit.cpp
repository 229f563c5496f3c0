#include "obs/audit.h"

#include "common/check.h"
#include "obs/format.h"

namespace ibsec::obs {

void AuditLog::configure(const AuditConfig& config) {
  config_ = config;
  if (config_.capacity == 0) config_.capacity = 1;
}

void AuditLog::emit(AuditType type, const AuditEvent& event) {
  if (!config_.enabled) return;
  AuditEvent ev = event;
  ev.type = type.name();
  record(ev);
}

void AuditLog::emit(Decision kind, const AuditEvent& event) {
  if (!config_.enabled) return;
  const DecisionRow& row = decision_row(kind);
  IBSEC_DCHECK(!row.audit_type.empty());
  AuditEvent ev = event;
  ev.type = row.audit_type;
  ev.verdict = row.verdict;
  record(ev);
}

void AuditLog::record(const AuditEvent& event) {
  ++recorded_;
  if (events_.size() < config_.capacity) {
    events_.push_back(event);
    return;
  }
  if (!config_.ring) {
    ++dropped_;  // drop-newest: the front of the run is what we keep
    return;
  }
  // Ring mode: overwrite the oldest slot, keep the newest tail.
  events_[ring_head_] = event;
  ring_head_ = (ring_head_ + 1) % config_.capacity;
  ++evicted_;
}

std::vector<AuditEvent> AuditLog::events() const {
  std::vector<AuditEvent> out;
  out.reserve(events_.size());
  // ring_head_ is the oldest element once the ring has wrapped.
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(ring_head_ + i) % events_.size()]);
  }
  return out;
}

std::string AuditLog::to_jsonl() const {
  TextBuilder out;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    // In place, oldest first: ring_head_ is the oldest once wrapped.
    const AuditEvent& ev = events_[(ring_head_ + i) % events_.size()];
    out.text("{\"t\":").integer(ev.at);
    out.text(",\"type\":\"").text(ev.type);
    out.text("\",\"verdict\":\"").text(ev.verdict);
    out.text("\",\"node\":").integer(ev.node);
    out.text(",\"actor_lid\":").integer(ev.actor_lid);
    out.text(",\"actor_qp\":").integer(ev.actor_qp);
    out.text(",\"victim_lid\":").integer(ev.victim_lid);
    out.text(",\"victim_qp\":").integer(ev.victim_qp);
    out.text(",\"port\":").integer(ev.port);
    out.text(",\"trace_id\":").integer(static_cast<std::int64_t>(ev.trace_id));
    out.text(",\"a0\":").integer(ev.a0);
    out.text("}\n");
  }
  return out.take();
}

}  // namespace ibsec::obs
