// detlint — the repo's determinism and contract analyzer.
//
// The simulator's headline guarantees are byte-identical replay, a
// zero-allocation event loop, and a strictly layered dependency DAG.
// test_determinism, the alloc-probe bench gate, and the build check each of
// those end-to-end; detlint enforces them at the source level, before a
// violation is ever built and run.
//
// Single-file line rules (analyze_project runs them on every file; the
// tests also run them on one in-memory source through scan_source):
//
//   unordered-container      std::unordered_map / std::unordered_set (and
//                            multi variants): hash iteration order is
//                            unspecified and differs across standard
//                            libraries, so any traversal that reaches sim
//                            state or snapshots is a latent heisenbug.
//   raw-rand                 rand()/std::random_device/std::mt19937 & co.
//                            outside common/rng.*: unseeded or
//                            implementation-defined randomness. Workload
//                            randomness must come from ibsec::Rng, key
//                            material from crypto::CtrDrbg.
//   wall-clock               system_clock / steady_clock / time(nullptr) /
//                            gettimeofday...: wall time must never feed
//                            simulation logic; SimTime is the only clock.
//   pointer-keyed-container  std::map/std::set keyed by a pointer: ordered,
//                            but by allocation address — iteration order
//                            changes run to run.
//   raw-assert               assert() outside common/check.h: compiles away
//                            under NDEBUG, so release builds lose the
//                            invariant. Use IBSEC_CHECK / IBSEC_DCHECK.
//   hot-function             std::function in a sim/ or fabric/ header:
//                            those layers run per event / per packet, and
//                            std::function's type erasure heap-allocates for
//                            captures over its tiny SSO buffer. Use
//                            sim::InlineFunction (sim/inline_function.h).
//   hot-alloc                allocation inside a function annotated
//                            IBSEC_HOT (common/annotations.h): new,
//                            make_unique/make_shared, std::function,
//                            node-based containers, unreserved push_back,
//                            std::string temporaries. The static face of the
//                            alloc-probe contract; see analysis_hotpath.h.
//   bad-allow                IBSEC_DETLINT_ALLOW naming an unknown rule, so
//                            typos cannot silently waive everything.
//
// Cross-file passes (analyze_project; the CLI always runs them):
//
//   layering                 a quoted #include pointing up the layer DAG
//                            (common→crypto→ib→obs→sim→fabric→transport→
//                            security→workload/analytic), or an include
//                            cycle between files (reported with the full
//                            edge chain). See analysis_layering.h.
//   metric-schema            an obs metric registered in src/ whose name no
//                            pattern in docs/metrics_schema.md can produce
//                            (with a "did you mean" suggestion for near-miss
//                            typos). See analysis_metrics.h.
//   schema-unused            a schema row no scanned source registers —
//                            schema rot, the doc-side mirror of
//                            metric-schema.
//   unused-allow             an IBSEC_DETLINT_ALLOW directive that waives
//                            nothing anymore — waiver rot; delete it.
//
// Suppression grammar: a comment holding the waiver marker with one or more
// rule names (comma-separated, in parentheses) on the same line as the
// finding, or on the line directly above, waives it; DESIGN.md ("detlint")
// shows the spelling. A literal example here would be a waiver itself, and
// the unused-allow pass would report it.
//
// Comments and string literals are lexed away before matching (raw strings
// and backslash line continuations included), so prose mentioning
// unordered_map is fine.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ibsec::detlint {

struct Finding {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
  std::string snippet;  ///< the offending source line, whitespace-trimmed

  bool operator==(const Finding&) const = default;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

/// Every rule detlint knows, in reporting order.
const std::vector<RuleInfo>& rules();
bool is_known_rule(std::string_view name);

/// Scans one translation unit with the single-file rules (line rules plus
/// the IBSEC_HOT region pass). `path` is used for exemptions (common/rng.*
/// may use raw randomness; common/check.h may discuss assert) and for the
/// findings' file field; `content` is the full source text. Cross-file
/// passes (layering, metric-schema, unused-allow) need a whole project and
/// run only under analyze_project.
std::vector<Finding> scan_source(std::string_view path,
                                 std::string_view content);

/// Options for the full multi-pass analysis.
struct AnalyzerOptions {
  /// Files and/or directories to load; a directory contributes every
  /// *.h/*.hpp/*.cpp/*.cc/*.cxx under it, recursively, in sorted path order
  /// (the linter is itself deterministic).
  std::vector<std::string> paths;
  std::string schema_path;  ///< docs/metrics_schema.md; empty skips the
                            ///< metric-schema and schema-unused passes
};

/// Runs every pass over the whole project: single-file rules, IBSEC_HOT
/// regions, layering DAG + include cycles, metric schema (when
/// `schema_path` is set), then waiver accounting (unused-allow). Findings
/// are appended sorted. Returns false when a path or the schema cannot be
/// read; an explanation is appended to `error`.
bool analyze_project(const AnalyzerOptions& options,
                     std::vector<Finding>& findings, std::string& error);

/// Sorts findings by (file, line, rule) — the canonical output order.
void sort_findings(std::vector<Finding>& findings);

/// Human-readable report, one finding per line plus a summary.
std::string to_text(const std::vector<Finding>& findings);

/// Machine-readable report: {"findings":[{file,line,rule,message,snippet}]}.
std::string to_json(const std::vector<Finding>& findings);

}  // namespace ibsec::detlint
