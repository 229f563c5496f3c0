#include "forensics.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/decision.h"

namespace ibsec::forensics {
namespace {

using obs::Decision;

// The audit types the detectors key on, checked against the decision table
// when this file compiles: renaming a row breaks the build instead of
// silently emptying a detector. Verdicts are read from the rows by name.
constexpr obs::AuditType kQkeyReject = "qkey_reject";
constexpr obs::AuditType kMacFail = "mac_fail";
constexpr obs::AuditType kSmTrap = "sm_trap";
constexpr obs::AuditType kRcSpoofedControl = "rc_spoofed_control";
constexpr obs::AuditType kPkeyReject = "pkey_reject";
constexpr obs::AuditType kDptDrop = "dpt_drop";
constexpr obs::AuditType kRateLimitTrip = "rate_limit_trip";

/// Whether `r` records `kind`: its row's audit type and verdict.
bool is(const AuditRecord& r, Decision kind) {
  const obs::DecisionRow& row = obs::decision_row(kind);
  return r.type == row.audit_type && r.verdict == row.verdict;
}

/// A bandwidth-DoS verdict: the enforcement side of the Fig. 1 flood.
bool is_flood(const AuditRecord& r) {
  return r.type == kPkeyReject || r.type == kDptDrop ||
         r.type == kRateLimitTrip;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

// Formats an x1000 ratio as "d.ddd" from integer arithmetic only.
void append_ratio(std::string& out, std::int64_t x1000) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(x1000 / 1000),
                static_cast<long long>(x1000 % 1000));
  out += buf;
}

// Minimal scanner for the flat one-object-per-line JSON the audit plane
// writes: find `"key":` and read the value after it (quoted string or
// integer). Not a general JSON parser — the input grammar is ours.
std::optional<std::string_view> field_of(std::string_view line,
                                         std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t begin = at + needle.size();
  if (begin >= line.size()) return std::nullopt;
  if (line[begin] == '"') {
    ++begin;
    const std::size_t end = line.find('"', begin);
    if (end == std::string_view::npos) return std::nullopt;
    return line.substr(begin, end - begin);
  }
  std::size_t end = begin;
  while (end < line.size() &&
         (line[end] == '-' || (line[end] >= '0' && line[end] <= '9'))) {
    ++end;
  }
  if (end == begin) return std::nullopt;
  return line.substr(begin, end - begin);
}

std::int64_t to_int(std::string_view s) {
  std::int64_t value = 0;
  bool negative = false;
  std::size_t i = 0;
  if (i < s.size() && s[i] == '-') {
    negative = true;
    ++i;
  }
  for (; i < s.size(); ++i) value = value * 10 + (s[i] - '0');
  return negative ? -value : value;
}

/// The per-detector accumulation state, keyed by actor LID.
struct Cluster {
  std::uint64_t events = 0;
  std::uint64_t accepted = 0;
  std::int64_t first_t = 0;
  std::int64_t last_t = 0;
};

using ClusterMap = std::map<int, Cluster>;

void hit(ClusterMap& clusters, const AuditRecord& r, bool accepted) {
  Cluster& c = clusters[r.actor_lid];
  if (accepted) {
    ++c.accepted;
    return;
  }
  if (c.events == 0) c.first_t = r.t;
  ++c.events;
  c.last_t = r.t;
}

/// Fixed detector presentation order (scan first: the paper's headline).
int kind_order(std::string_view kind) {
  if (kind == "scan") return 0;
  if (kind == "replay") return 1;
  if (kind == "trap_forge") return 2;
  if (kind == "rc_spoof") return 3;
  return 4;  // flood
}

bool incident_matches(const Incident& inc, const AuditRecord& r) {
  if (r.actor_lid != inc.suspect_lid) return false;
  if (inc.kind == "scan") {
    return r.type == kQkeyReject ||
           (r.type == kMacFail && !is(r, Decision::kCaAuthReplay));
  }
  if (inc.kind == "replay") return is(r, Decision::kCaAuthReplay);
  if (inc.kind == "trap_forge") return r.type == kSmTrap;
  if (inc.kind == "rc_spoof") return r.type == kRcSpoofedControl;
  return is_flood(r);
}

}  // namespace

std::optional<std::vector<AuditRecord>> parse_audit_jsonl(
    std::string_view text) {
  std::vector<AuditRecord> records;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}') return std::nullopt;
    const auto type = field_of(line, "type");
    if (!type) return std::nullopt;
    AuditRecord r;
    r.type = std::string(*type);
    if (const auto v = field_of(line, "verdict")) r.verdict = std::string(*v);
    if (const auto v = field_of(line, "t")) r.t = to_int(*v);
    if (const auto v = field_of(line, "node")) {
      r.node = static_cast<int>(to_int(*v));
    }
    if (const auto v = field_of(line, "actor_lid")) {
      r.actor_lid = static_cast<int>(to_int(*v));
    }
    if (const auto v = field_of(line, "actor_qp")) {
      r.actor_qp = static_cast<int>(to_int(*v));
    }
    if (const auto v = field_of(line, "victim_lid")) {
      r.victim_lid = static_cast<int>(to_int(*v));
    }
    if (const auto v = field_of(line, "victim_qp")) {
      r.victim_qp = static_cast<int>(to_int(*v));
    }
    if (const auto v = field_of(line, "port")) {
      r.port = static_cast<int>(to_int(*v));
    }
    if (const auto v = field_of(line, "trace_id")) {
      r.trace_id = static_cast<std::uint64_t>(to_int(*v));
    }
    if (const auto v = field_of(line, "a0")) r.a0 = to_int(*v);
    records.push_back(std::move(r));
  }
  return records;
}

std::vector<std::uint64_t> trace_ids_of(std::string_view chrome_json) {
  std::vector<std::uint64_t> ids;
  std::size_t pos = 0;
  const std::string_view needle = "\"tid\":";
  while ((pos = chrome_json.find(needle, pos)) != std::string_view::npos) {
    pos += needle.size();
    std::uint64_t value = 0;
    bool any = false;
    while (pos < chrome_json.size() && chrome_json[pos] >= '0' &&
           chrome_json[pos] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(chrome_json[pos] - '0');
      ++pos;
      any = true;
    }
    if (any) ids.push_back(value);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Report analyze(const std::vector<AuditRecord>& records,
               const AnalysisConfig& config) {
  Report report;
  report.total_events = records.size();

  ClusterMap scan, replay, trap_forge, rc_spoof, flood;
  for (const AuditRecord& r : records) {
    if (r.type == kQkeyReject) {
      hit(scan, r, false);
    } else if (r.type == kMacFail) {
      hit(is(r, Decision::kCaAuthReplay) ? replay : scan, r, false);
    } else if (r.type == kSmTrap) {
      hit(trap_forge, r, is(r, Decision::kSmTrapAccepted));
    } else if (r.type == kRcSpoofedControl) {
      hit(rc_spoof, r, is(r, Decision::kCaRcControlAccepted));
    } else if (is_flood(r)) {
      hit(flood, r, false);
    }
  }

  const auto harvest = [&](const char* kind, const ClusterMap& clusters,
                           bool spoofed_source) {
    for (const auto& [lid, c] : clusters) {
      if (c.events < config.min_cluster) continue;
      Incident inc;
      inc.kind = kind;
      inc.suspect_lid = lid;
      inc.events = c.events;
      inc.accepted = c.accepted;
      inc.first_t = c.first_t;
      inc.last_t = c.last_t;
      inc.spoofed_source = spoofed_source;
      report.incidents.push_back(std::move(inc));
    }
  };
  harvest("scan", scan, false);
  // Replayed packets verify under the original sender's SLID and MAC: the
  // burst is detectable, the actor is not. Never put the spoofed honest
  // source on the suspect list.
  harvest("replay", replay, true);
  harvest("trap_forge", trap_forge, false);
  harvest("rc_spoof", rc_spoof, false);
  harvest("flood", flood, false);

  std::sort(report.incidents.begin(), report.incidents.end(),
            [](const Incident& a, const Incident& b) {
              const int ka = kind_order(a.kind), kb = kind_order(b.kind);
              if (ka != kb) return ka < kb;
              return a.suspect_lid < b.suspect_lid;
            });
  for (const Incident& inc : report.incidents) {
    if (!inc.spoofed_source) report.suspects.push_back(inc.suspect_lid);
  }
  std::sort(report.suspects.begin(), report.suspects.end());
  report.suspects.erase(
      std::unique(report.suspects.begin(), report.suspects.end()),
      report.suspects.end());
  return report;
}

void join_trace(Report& report, const std::vector<AuditRecord>& records,
                const std::vector<std::uint64_t>& trace_ids) {
  for (Incident& inc : report.incidents) {
    inc.traced = 0;
    for (const AuditRecord& r : records) {
      if (r.trace_id == 0 || r.trace_id == ~0ULL) continue;
      if (!incident_matches(inc, r)) continue;
      if (std::binary_search(trace_ids.begin(), trace_ids.end(),
                             r.trace_id)) {
        ++inc.traced;
      }
    }
  }
}

Detection score(const Report& report, const std::vector<int>& truth_lids) {
  std::vector<int> truth = truth_lids;
  std::sort(truth.begin(), truth.end());
  truth.erase(std::unique(truth.begin(), truth.end()), truth.end());

  Detection det;
  for (int lid : report.suspects) {
    if (std::binary_search(truth.begin(), truth.end(), lid)) {
      ++det.true_positives;
    } else {
      ++det.false_positives;
    }
  }
  for (int lid : truth) {
    if (!std::binary_search(report.suspects.begin(), report.suspects.end(),
                            lid)) {
      ++det.false_negatives;
    }
  }
  const std::uint64_t flagged = det.true_positives + det.false_positives;
  const std::uint64_t actual = det.true_positives + det.false_negatives;
  det.precision_x1000 =
      flagged ? static_cast<std::int64_t>(det.true_positives * 1000 / flagged)
              : 0;
  det.recall_x1000 =
      actual ? static_cast<std::int64_t>(det.true_positives * 1000 / actual)
             : 0;
  return det;
}

std::string to_text(const Report& report, const Detection* detection) {
  std::string out = "forensics: ";
  append_int(out, static_cast<std::int64_t>(report.total_events));
  out += " audit events, ";
  append_int(out, static_cast<std::int64_t>(report.incidents.size()));
  out += " incidents, ";
  append_int(out, static_cast<std::int64_t>(report.suspects.size()));
  out += " suspects\n";
  for (const Incident& inc : report.incidents) {
    out += "incident ";
    out += inc.kind;
    out += inc.spoofed_source ? " spoofed_slid=" : " suspect_lid=";
    append_int(out, inc.suspect_lid);
    out += " events=";
    append_int(out, static_cast<std::int64_t>(inc.events));
    out += " accepted=";
    append_int(out, static_cast<std::int64_t>(inc.accepted));
    out += " window_ps=[";
    append_int(out, inc.first_t);
    out += ',';
    append_int(out, inc.last_t);
    out += "] traced=";
    append_int(out, static_cast<std::int64_t>(inc.traced));
    out += '\n';
  }
  out += "suspects:";
  for (int lid : report.suspects) {
    out += ' ';
    append_int(out, lid);
  }
  out += '\n';
  if (detection != nullptr) {
    out += "detection: tp=";
    append_int(out, static_cast<std::int64_t>(detection->true_positives));
    out += " fp=";
    append_int(out, static_cast<std::int64_t>(detection->false_positives));
    out += " fn=";
    append_int(out, static_cast<std::int64_t>(detection->false_negatives));
    out += " precision=";
    append_ratio(out, detection->precision_x1000);
    out += " recall=";
    append_ratio(out, detection->recall_x1000);
    out += '\n';
  }
  return out;
}

std::string to_json(const Report& report, const Detection* detection) {
  std::string out = "{\"total_events\":";
  append_int(out, static_cast<std::int64_t>(report.total_events));
  out += ",\"incidents\":[";
  bool first = true;
  for (const Incident& inc : report.incidents) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"";
    out += inc.kind;
    out += "\",\"suspect_lid\":";
    append_int(out, inc.suspect_lid);
    out += ",\"events\":";
    append_int(out, static_cast<std::int64_t>(inc.events));
    out += ",\"accepted\":";
    append_int(out, static_cast<std::int64_t>(inc.accepted));
    out += ",\"first_t\":";
    append_int(out, inc.first_t);
    out += ",\"last_t\":";
    append_int(out, inc.last_t);
    out += ",\"traced\":";
    append_int(out, static_cast<std::int64_t>(inc.traced));
    out += ",\"spoofed_source\":";
    out += inc.spoofed_source ? "true" : "false";
    out += '}';
  }
  out += "],\"suspects\":[";
  first = true;
  for (int lid : report.suspects) {
    if (!first) out += ',';
    first = false;
    append_int(out, lid);
  }
  out += ']';
  if (detection != nullptr) {
    out += ",\"detection\":{\"tp\":";
    append_int(out, static_cast<std::int64_t>(detection->true_positives));
    out += ",\"fp\":";
    append_int(out, static_cast<std::int64_t>(detection->false_positives));
    out += ",\"fn\":";
    append_int(out, static_cast<std::int64_t>(detection->false_negatives));
    out += ",\"precision_x1000\":";
    append_int(out, detection->precision_x1000);
    out += ",\"recall_x1000\":";
    append_int(out, detection->recall_x1000);
    out += '}';
  }
  out += "}\n";
  return out;
}

}  // namespace ibsec::forensics
