// detlint CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   detlint [--format=text|json|sarif] [--sarif] [--schema=FILE]
//           [--baseline=FILE] [--diff=FILE] [--list-rules] <path>...
//
// Each path may be a file or a directory (scanned recursively for C++
// sources). Every pass runs: line rules, IBSEC_HOT allocation regions,
// layering DAG + include cycles, the metric schema (when --schema is
// given), and stale-waiver accounting.
//
//   --sarif              shorthand for --format=sarif (GitHub code scanning)
//   --schema=FILE        docs/metrics_schema.md; enables the metric passes
//   --baseline=FILE      record current findings to FILE and exit 0 — the
//                        accepted debt snapshot
//   --diff=FILE          report (and gate on) only findings not in FILE
//
// CI runs `detlint --schema=docs/metrics_schema.md --sarif src/`; the
// cmake `lint` target wraps the text-format equivalent.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis_report.h"
#include "detlint.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: detlint [--format=text|json|sarif] [--sarif] "
               "[--schema=FILE] [--baseline=FILE] [--diff=FILE] "
               "[--list-rules] <path>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string schema_path;
  std::string baseline_out;
  std::string diff_path;
  std::vector<std::string> paths;
  bool list_rules = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif") {
        return usage();
      }
    } else if (arg == "--sarif") {
      format = "sarif";
    } else if (arg.rfind("--schema=", 0) == 0) {
      schema_path = arg.substr(9);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_out = arg.substr(11);
    } else if (arg.rfind("--diff=", 0) == 0) {
      diff_path = arg.substr(7);
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (list_rules) {
    for (const auto& rule : ibsec::detlint::rules()) {
      std::printf("%-24s %s\n", std::string(rule.name).c_str(),
                  std::string(rule.summary).c_str());
    }
    return 0;
  }
  if (paths.empty()) return usage();
  if (!baseline_out.empty() && !diff_path.empty()) return usage();

  ibsec::detlint::AnalyzerOptions options;
  options.paths = paths;
  options.schema_path = schema_path;
  std::vector<ibsec::detlint::Finding> findings;
  std::string error;
  const bool ok = ibsec::detlint::analyze_project(options, findings, error);
  if (!ok) {
    std::fprintf(stderr, "detlint: %s", error.c_str());
    return 2;
  }

  if (!baseline_out.empty()) {
    std::ofstream out(baseline_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "detlint: cannot write baseline %s\n",
                   baseline_out.c_str());
      return 2;
    }
    out << ibsec::detlint::to_baseline(findings);
    std::fprintf(stderr, "detlint: baseline of %zu finding%s written to %s\n",
                 findings.size(), findings.size() == 1 ? "" : "s",
                 baseline_out.c_str());
    return 0;
  }
  if (!diff_path.empty()) {
    std::vector<std::string> keys;
    if (!ibsec::detlint::load_baseline(diff_path, keys, error)) {
      std::fprintf(stderr, "detlint: %s", error.c_str());
      return 2;
    }
    findings = ibsec::detlint::filter_new_findings(findings, keys);
  }

  std::string report;
  if (format == "json") {
    report = ibsec::detlint::to_json(findings);
  } else if (format == "sarif") {
    report = ibsec::detlint::to_sarif(findings);
  } else {
    report = ibsec::detlint::to_text(findings);
  }
  std::printf("%s%s", report.c_str(),
              report.empty() || report.back() == '\n' ? "" : "\n");
  return findings.empty() ? 0 : 1;
}
