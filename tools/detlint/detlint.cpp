#include "detlint.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "analysis_hotpath.h"
#include "analysis_layering.h"
#include "analysis_lex.h"
#include "analysis_metrics.h"
#include "analysis_model.h"

namespace ibsec::detlint {
namespace {

// --- rules -------------------------------------------------------------------

constexpr std::string_view kUnorderedContainer = "unordered-container";
constexpr std::string_view kRawRand = "raw-rand";
constexpr std::string_view kWallClock = "wall-clock";
constexpr std::string_view kPointerKeyed = "pointer-keyed-container";
constexpr std::string_view kRawAssert = "raw-assert";
constexpr std::string_view kHotFunction = "hot-function";
constexpr std::string_view kHotAlloc = "hot-alloc";
constexpr std::string_view kLayering = "layering";
constexpr std::string_view kMetricSchema = "metric-schema";
constexpr std::string_view kSchemaUnused = "schema-unused";
constexpr std::string_view kUnusedAllow = "unused-allow";
constexpr std::string_view kBadAllow = "bad-allow";

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kRules = {
      {kUnorderedContainer,
       "hash containers iterate in unspecified order; use std::map/std::set "
       "or sorted-key traversal"},
      {kRawRand,
       "unseeded/implementation-defined randomness; use ibsec::Rng "
       "(common/rng.h) or crypto::CtrDrbg"},
      {kWallClock,
       "wall-clock time must not feed simulation logic; use SimTime via "
       "sim::Simulator::now()"},
      {kPointerKeyed,
       "pointer-keyed ordered containers iterate in allocation-address "
       "order; key by a stable id instead"},
      {kRawAssert,
       "assert() vanishes under NDEBUG; use IBSEC_CHECK/IBSEC_DCHECK "
       "(common/check.h)"},
      {kHotFunction,
       "std::function in a sim/ or fabric/ header heap-allocates on the "
       "per-event path; use sim::InlineFunction (sim/inline_function.h)"},
      {kHotAlloc,
       "allocation inside an IBSEC_HOT region (new, make_unique/shared, "
       "std::function, node container, unreserved push_back, std::string "
       "temporary); the hot path has a zero-allocation budget"},
      {kLayering,
       "include points up the layer DAG or forms a cycle; dependencies flow "
       "common->crypto->ib->obs->sim->fabric->transport->security->"
       "workload/analytic"},
      {kMetricSchema,
       "registered obs metric name that no docs/metrics_schema.md pattern "
       "can produce (typos get a did-you-mean suggestion)"},
      {kSchemaUnused,
       "docs/metrics_schema.md row that no scanned source registers; delete "
       "it or tag it dynamic"},
      {kUnusedAllow,
       "IBSEC_DETLINT_ALLOW directive that suppresses nothing; delete the "
       "stale waiver"},
      {kBadAllow, "IBSEC_DETLINT_ALLOW names a rule detlint does not have"},
  };
  return kRules;
}

void scan_line(std::string_view path, std::string_view line, int lineno,
               std::string_view raw_line, std::vector<Finding>& findings) {
  const auto add = [&](std::string_view rule, std::string message) {
    findings.push_back(Finding{std::string(path), lineno, std::string(rule),
                               std::move(message), trim(raw_line)});
  };

  // unordered-container: usage, not the #include line (the include without
  // a use is dead and clang-tidy's misc-include-cleaner territory).
  if (!starts_with_include(line)) {
    for (const std::string_view word :
         {std::string_view("unordered_map"), std::string_view("unordered_set"),
          std::string_view("unordered_multimap"),
          std::string_view("unordered_multiset")}) {
      for (const std::size_t pos : word_positions(line, word)) {
        (void)pos;
        add(kUnorderedContainer,
            std::string("std::") + std::string(word) +
                " iterates in unspecified hash order; any traversal that "
                "reaches sim state or snapshots is nondeterministic — use "
                "std::map/std::set or sort keys first");
      }
    }
  }

  // raw-rand: generator types by name, C rand by call form.
  const bool rng_home = path_ends_with(path, "common/rng.h") ||
                        path_ends_with(path, "common/rng.cpp");
  if (!rng_home) {
    for (const std::string_view word :
         {std::string_view("random_device"), std::string_view("mt19937"),
          std::string_view("mt19937_64"), std::string_view("minstd_rand"),
          std::string_view("minstd_rand0"),
          std::string_view("default_random_engine")}) {
      if (!word_positions(line, word).empty()) {
        add(kRawRand, "std::" + std::string(word) +
                          " is not seed-reproducible simulation randomness; "
                          "use ibsec::Rng (workloads) or crypto::CtrDrbg "
                          "(key material)");
      }
    }
    for (const std::string_view word :
         {std::string_view("rand"), std::string_view("srand"),
          std::string_view("rand_r"), std::string_view("drand48"),
          std::string_view("lrand48")}) {
      for (const std::size_t pos : word_positions(line, word)) {
        if (is_call(line, pos, word.size(), /*exclude_members=*/true)) {
          add(kRawRand, std::string(word) +
                            "() draws from hidden global state; use "
                            "ibsec::Rng seeded from the scenario config");
        }
      }
    }
  }

  // wall-clock: chrono clocks by name, libc time APIs by call form.
  for (const std::string_view word :
       {std::string_view("system_clock"), std::string_view("steady_clock"),
        std::string_view("high_resolution_clock"),
        std::string_view("gettimeofday"), std::string_view("clock_gettime"),
        std::string_view("timespec_get"), std::string_view("localtime"),
        std::string_view("gmtime")}) {
    if (!word_positions(line, word).empty()) {
      add(kWallClock, std::string(word) +
                          " reads wall time, which differs every run; "
                          "simulation logic must use SimTime "
                          "(sim::Simulator::now())");
    }
  }
  for (const std::string_view word :
       {std::string_view("time"), std::string_view("clock")}) {
    for (const std::size_t pos : word_positions(line, word)) {
      if (is_call(line, pos, word.size(), /*exclude_members=*/true)) {
        add(kWallClock, std::string(word) +
                            "() reads wall time, which differs every run; "
                            "simulation logic must use SimTime "
                            "(sim::Simulator::now())");
      }
    }
  }

  // pointer-keyed-container: std::map</std::set< whose first template
  // argument is a pointer type.
  for (const std::string_view word :
       {std::string_view("map"), std::string_view("set"),
        std::string_view("multimap"), std::string_view("multiset")}) {
    for (const std::size_t pos : word_positions(line, word)) {
      const std::size_t open = pos + word.size();
      if (open >= line.size() || line[open] != '<') continue;
      // Require std:: qualification to stay out of user templates.
      if (pos < 5 || line.compare(pos - 5, 5, "std::") != 0) continue;
      const std::string arg = first_template_arg(line, open);
      if (arg.find('*') != std::string::npos) {
        add(kPointerKeyed,
            "std::" + std::string(word) + " keyed by '" + trim(arg) +
                "' iterates in allocation-address order, which is "
                "nondeterministic; key by a stable id (node, QPN, name)");
      }
    }
  }

  // hot-function: std::function in headers of the per-event layers. Headers
  // only — a .cpp using std::function for setup/cold paths is fine, but a
  // header type ends up in the structs and signatures the hot loops touch.
  // src/sim and src/fabric are the layers with a per-event / per-packet
  // budget; the allocation contract lives in sim/inline_function.h.
  if ((path.find("/sim/") != std::string_view::npos ||
       path.find("/fabric/") != std::string_view::npos) &&
      (path_ends_with(path, ".h") || path_ends_with(path, ".hpp")) &&
      !starts_with_include(line)) {
    for (const std::size_t pos : word_positions(line, "function")) {
      if (pos >= 5 && line.compare(pos - 5, 5, "std::") == 0) {
        add(kHotFunction,
            "std::function type-erases through the heap once a capture "
            "outgrows its small buffer, putting an allocation on the "
            "per-event path; use sim::InlineFunction "
            "(sim/inline_function.h), which rejects oversized captures at "
            "compile time");
      }
    }
  }

  // raw-assert: assert( call form anywhere but the contract library.
  if (!path_ends_with(path, "common/check.h")) {
    for (const std::size_t pos : word_positions(line, "assert")) {
      if (is_call(line, pos, 6, /*exclude_members=*/false)) {
        add(kRawAssert,
            "assert() compiles away under NDEBUG so release builds lose the "
            "invariant; use IBSEC_CHECK (always on) or IBSEC_DCHECK "
            "(debug-only) from common/check.h");
      }
    }
  }
}

/// All line rules over one file model, unwaived (the caller filters).
void run_line_rules(const FileModel& fm, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < fm.lexed.code.size(); ++i) {
    const std::string_view raw =
        i < fm.raw_lines.size() ? std::string_view(fm.raw_lines[i])
                                : std::string_view();
    scan_line(fm.path, fm.lexed.code[i], static_cast<int>(i + 1), raw,
              findings);
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() { return rule_table(); }

bool is_known_rule(std::string_view name) {
  for (const RuleInfo& r : rule_table()) {
    if (r.name == name) return true;
  }
  return false;
}

std::vector<Finding> scan_source(std::string_view path,
                                 std::string_view content) {
  std::vector<Finding> findings;
  FileModel fm = build_file_model(std::string(path), content, findings);

  std::vector<Finding> hits;
  run_line_rules(fm, hits);
  run_hotpath_pass(fm, hits);
  for (Finding& f : hits) {
    if (!fm.allows.waives(f.line, f.rule)) findings.push_back(std::move(f));
  }
  sort_findings(findings);
  return findings;
}

bool scan_path(const std::string& path, std::vector<Finding>& findings,
               std::string& error) {
  Project project;
  bool ok = load_project({path}, project, findings, error);
  for (FileModel& fm : project.files) {
    std::vector<Finding> hits;
    run_line_rules(fm, hits);
    run_hotpath_pass(fm, hits);
    for (Finding& f : hits) {
      if (!fm.allows.waives(f.line, f.rule)) findings.push_back(std::move(f));
    }
  }
  return ok;
}

bool analyze_project(const AnalyzerOptions& options,
                     std::vector<Finding>& findings, std::string& error) {
  Project project;
  bool ok = load_project(options.paths, project, findings, error);

  std::vector<Finding> hits;
  for (FileModel& fm : project.files) {
    run_line_rules(fm, hits);
    run_hotpath_pass(fm, hits);
  }
  run_layering_pass(project, hits);
  if (!options.schema_path.empty()) {
    MetricSchema schema;
    if (load_metric_schema(options.schema_path, schema, error)) {
      run_metrics_pass(project, schema, hits);
    } else {
      ok = false;
    }
  }

  // Waiver filter — also the usage accounting the unused-allow pass reads.
  std::map<std::string, FileModel*> by_path;
  for (FileModel& fm : project.files) by_path[fm.path] = &fm;
  for (Finding& f : hits) {
    const auto it = by_path.find(f.file);
    if (it != by_path.end() && it->second->allows.waives(f.line, f.rule)) {
      continue;
    }
    findings.push_back(std::move(f));
  }
  for (const FileModel& fm : project.files) {
    for (const AllowEntry& e : fm.allows.entries) {
      if (e.used) continue;
      findings.push_back(Finding{
          fm.path, e.line, std::string(kUnusedAllow),
          "IBSEC_DETLINT_ALLOW(" + e.rule +
              ") waives nothing on this or the next line; delete the stale "
              "waiver (or fix the rule name if a finding was expected)",
          e.snippet});
    }
  }
  sort_findings(findings);
  return ok;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

std::string to_text(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n    " << f.snippet << "\n";
  }
  if (findings.empty()) {
    out << "detlint: clean\n";
  } else {
    out << "detlint: " << findings.size() << " finding"
        << (findings.size() == 1 ? "" : "s")
        << " (suppress intentional uses with "
           "// IBSEC_DETLINT_ALLOW(<rule>))\n";
  }
  return out.str();
}

std::string to_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out << ",";
    out << "{\"file\":\"" << json_escape(f.file) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << json_escape(f.rule) << "\",\"message\":\""
        << json_escape(f.message) << "\",\"snippet\":\""
        << json_escape(f.snippet) << "\"}";
  }
  out << "],\"count\":" << findings.size() << "}";
  return out.str();
}

}  // namespace ibsec::detlint
