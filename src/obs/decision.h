// The enforcement-decision table: the one place the audit and trace
// vocabulary of a security decision is spelt.
//
// Every decision an enforcement point makes (a switch drop, a CA retire or
// delivery, an RC control-packet verdict, an SM trap verdict, a SIF install
// or expiry) is one row. A row names where the decision is made, the audit
// event type and verdict it emits (or none) and the trace instant it writes
// (or none). Packet decisions go through sim::Simulator::record(), which
// bumps the caller's counter and then writes the row's audit event and
// trace instant; the SM and the SIF expiry build their own audit header
// and emit by row (AuditLog::emit(Decision, ...)). No enforcement site
// spells an audit type or verdict.
//
// AuditType is the checked spelling for code that names an audit type by
// literal (the offline forensic analyzer, benchmarks): its constructor is
// consteval and accepts only a type some row names, so a misspelt type
// fails to compile. docs/audit_schema.md documents the same vocabulary;
// tests/test_decisions.cpp checks that the document and this table agree
// on every type and verdict, and that a short scenario emits every audited
// row.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/trace.h"

namespace ibsec::obs {

/// Where a decision is made. For packet decisions the site picks the audit
/// header's form: at a switch `port` is the ingress port and `actor_qp` is
/// -1; at a CA `actor_qp` comes from the DETH and `port` is -1.
enum class DecisionSite : std::uint8_t { kSwitch, kCa, kSubnetManager };

enum class Decision : std::uint8_t {
  // Switch::packet_arrived drops, and the SIF idle expiry.
  kSwitchDead, kSwitchVcrc, kSwitchRateLimited, kSwitchDptDrop, kSwitchIfDrop,
  kSwitchSifDrop, kSwitchNoRoute, kSifExpire,
  // ChannelAdapter retires and deliveries, and the RC control-packet gate.
  kCaVcrc, kCaMad, kCaPkeyViolation, kCaAuthMissing, kCaAuthBadTag,
  kCaAuthNoKey, kCaAuthReplay, kCaIcrcError, kCaRcDuplicate, kCaRcOutOfOrder,
  kCaRdmaReadResponse, kCaNoDestQp, kCaQkeyViolation, kCaDelivered,
  kCaRdmaRejected, kCaRdmaNak, kCaRcControlRejected, kCaRcControlAccepted,
  // SubnetManager trap validation and SIF programming.
  kSmTrapAccepted, kSmTrapRejected, kSifInstall,
  kCount
};

struct DecisionRow {
  Decision kind;
  DecisionSite site;
  std::string_view audit_type;  ///< empty: the decision emits no audit event
  std::string_view verdict;
  std::optional<TraceEventType> trace;  ///< nullopt: no trace instant
  /// The trace instant's detail; a C string because TraceEvent stores it as
  /// a std::string.
  const char* trace_detail;
};

inline constexpr std::array<DecisionRow,
                            static_cast<std::size_t>(Decision::kCount)>
    kDecisions = {{
        // clang-format off
        {Decision::kSwitchDead, DecisionSite::kSwitch, "", "", TraceEventType::kSwitchDrop, "dead"},
        {Decision::kSwitchVcrc, DecisionSite::kSwitch, "", "", TraceEventType::kSwitchDrop, "vcrc"},
        {Decision::kSwitchRateLimited, DecisionSite::kSwitch, "rate_limit_trip", "dropped", TraceEventType::kSwitchDrop, "rate_limited"},
        {Decision::kSwitchDptDrop, DecisionSite::kSwitch, "dpt_drop", "dpt", TraceEventType::kSwitchDrop, "pkey"},
        {Decision::kSwitchIfDrop, DecisionSite::kSwitch, "dpt_drop", "if", TraceEventType::kSwitchDrop, "pkey"},
        {Decision::kSwitchSifDrop, DecisionSite::kSwitch, "dpt_drop", "sif", TraceEventType::kSwitchDrop, "pkey"},
        {Decision::kSwitchNoRoute, DecisionSite::kSwitch, "", "", TraceEventType::kSwitchDrop, "no_route"},
        {Decision::kSifExpire, DecisionSite::kSwitch, "sif_expire", "disarmed", std::nullopt, ""},
        {Decision::kCaVcrc, DecisionSite::kCa, "", "", TraceEventType::kRetire, "vcrc"},
        {Decision::kCaMad, DecisionSite::kCa, "", "", TraceEventType::kRetire, "mad"},
        {Decision::kCaPkeyViolation, DecisionSite::kCa, "pkey_reject", "rejected", TraceEventType::kRetire, "pkey_violation"},
        {Decision::kCaAuthMissing, DecisionSite::kCa, "mac_fail", "unauthenticated", TraceEventType::kRetire, "auth_missing"},
        {Decision::kCaAuthBadTag, DecisionSite::kCa, "mac_fail", "bad_tag", TraceEventType::kRetire, "auth_rejected"},
        {Decision::kCaAuthNoKey, DecisionSite::kCa, "mac_fail", "no_key", TraceEventType::kRetire, "auth_rejected"},
        {Decision::kCaAuthReplay, DecisionSite::kCa, "mac_fail", "replay", TraceEventType::kRetire, "auth_rejected"},
        {Decision::kCaIcrcError, DecisionSite::kCa, "", "", TraceEventType::kRetire, "icrc_error"},
        {Decision::kCaRcDuplicate, DecisionSite::kCa, "", "", TraceEventType::kRetire, "rc_duplicate"},
        {Decision::kCaRcOutOfOrder, DecisionSite::kCa, "", "", TraceEventType::kRetire, "rc_out_of_order"},
        {Decision::kCaRdmaReadResponse, DecisionSite::kCa, "", "", TraceEventType::kRetire, "rdma_read_response"},
        {Decision::kCaNoDestQp, DecisionSite::kCa, "", "", TraceEventType::kRetire, "no_dest_qp"},
        {Decision::kCaQkeyViolation, DecisionSite::kCa, "qkey_reject", "rejected", TraceEventType::kRetire, "qkey_violation"},
        {Decision::kCaDelivered, DecisionSite::kCa, "", "", TraceEventType::kDeliver, ""},
        {Decision::kCaRdmaRejected, DecisionSite::kCa, "", "", TraceEventType::kRetire, "rdma_rejected"},
        {Decision::kCaRdmaNak, DecisionSite::kCa, "", "", TraceEventType::kRetire, "rdma_nak"},
        {Decision::kCaRcControlRejected, DecisionSite::kCa, "rc_spoofed_control", "rejected", std::nullopt, ""},
        {Decision::kCaRcControlAccepted, DecisionSite::kCa, "rc_spoofed_control", "accepted", std::nullopt, ""},
        {Decision::kSmTrapAccepted, DecisionSite::kSubnetManager, "sm_trap", "accepted", std::nullopt, ""},
        {Decision::kSmTrapRejected, DecisionSite::kSubnetManager, "sm_trap", "rejected", std::nullopt, ""},
        {Decision::kSifInstall, DecisionSite::kSubnetManager, "sif_install", "armed", std::nullopt, ""},
        // clang-format on
    }};

constexpr const DecisionRow& decision_row(Decision kind) {
  return kDecisions[static_cast<std::size_t>(kind)];
}

namespace detail {

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < kDecisions.size(); ++i) {
    if (static_cast<std::size_t>(kDecisions[i].kind) != i) return false;
    if (kDecisions[i].audit_type.empty() != kDecisions[i].verdict.empty()) {
      return false;
    }
  }
  return true;
}

// Never defined: a consteval AuditType constructor that reaches it is not a
// constant expression, so the misspelt type fails to compile.
void audit_type_not_in_decision_table();

}  // namespace detail

static_assert(detail::rows_in_enum_order(),
              "kDecisions rows must follow the Decision enum, and a row has "
              "an audit verdict exactly when it has an audit type");

/// An audit event type that some decision row names, checked when the
/// program compiles.
class AuditType {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): literals convert on purpose.
  consteval AuditType(const char* name) : name_(name) {
    bool known = false;
    for (const DecisionRow& row : kDecisions) {
      known = known || (!row.audit_type.empty() && row.audit_type == name_);
    }
    if (!known) detail::audit_type_not_in_decision_table();
  }

  constexpr std::string_view name() const { return name_; }

  friend constexpr bool operator==(std::string_view text, AuditType type) {
    return text == type.name_;
  }

 private:
  std::string_view name_;
};

}  // namespace ibsec::obs
