// Tests for detlint's cross-file analysis layers: the column-preserving
// lexer, the file model (hot regions, includes, waivers), the layering and
// metric-schema passes, and the SARIF/baseline report plumbing. The
// single-file rule tests live in test_detlint.cpp; this suite covers
// everything that needs more than one line of context — or more than one
// file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis_lex.h"
#include "analysis_metrics.h"
#include "analysis_model.h"
#include "analysis_report.h"
#include "detlint.h"

namespace ibsec::detlint {
namespace {

std::size_t count_rule(const std::vector<Finding>& findings,
                       std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

std::string fixture_path(const std::string& name) {
  return std::string(IBSEC_SOURCE_ROOT) + "/tests/detlint_fixtures/" + name;
}

std::vector<Finding> analyze_fixture(const std::string& name,
                                     const std::string& schema = "") {
  AnalyzerOptions options;
  options.paths = {fixture_path(name)};
  options.schema_path = schema;
  std::vector<Finding> findings;
  std::string error;
  EXPECT_TRUE(analyze_project(options, findings, error)) << error;
  return findings;
}

// --- lexer -------------------------------------------------------------------

TEST(DetlintLex, RawStringInteriorIsBlankedButRecorded) {
  const auto lexed = lex_source("auto s = R\"doc(rand();)doc\";\n");
  EXPECT_EQ(lexed.code[0].find("rand"), std::string::npos);
  ASSERT_EQ(lexed.strings.size(), 1u);
  EXPECT_EQ(lexed.strings[0].value, "rand();");
}

TEST(DetlintLex, MultiLineRawStringKeepsLineCountAndValue) {
  // 4 physical lines plus the empty tail after the final '\n', matching
  // split_lines so line numbers index both views identically.
  const auto lexed = lex_source("auto s = R\"(a\nb\nc)\";\nint x;\n");
  ASSERT_EQ(lexed.code.size(), 5u);
  EXPECT_NE(lexed.code[3].find("int x;"), std::string::npos);
  ASSERT_EQ(lexed.strings.size(), 1u);
  EXPECT_EQ(lexed.strings[0].value, "a\nb\nc");
  EXPECT_EQ(lexed.strings[0].line, 1);
  EXPECT_EQ(lexed.strings[0].end_line, 3);
}

TEST(DetlintLex, BackslashContinuesLineComment) {
  const auto lexed = lex_source("// spliced \\\nrand();\nint y;\n");
  EXPECT_EQ(lexed.code[1].find("rand"), std::string::npos);
  EXPECT_NE(lexed.code[2].find("int y;"), std::string::npos);
}

TEST(DetlintLex, BackslashContinuesStringLiteral) {
  const auto lexed = lex_source("auto s = \"ab \\\ncd\";\nint z;\n");
  ASSERT_EQ(lexed.code.size(), 4u);
  EXPECT_EQ(lexed.code[1].find("cd"), std::string::npos);
  ASSERT_EQ(lexed.strings.size(), 1u);
  EXPECT_EQ(lexed.strings[0].end_line, 2);
  EXPECT_NE(lexed.code[2].find("int z;"), std::string::npos);
}

TEST(DetlintLex, BareNewlineTerminatesStringLiteral) {
  // Ill-formed C++, but the lexer must not swallow the rest of the file as
  // string content — the next line is code again.
  const auto lexed = lex_source("auto s = \"oops\nrand();\n");
  ASSERT_EQ(lexed.code.size(), 3u);
  EXPECT_NE(lexed.code[1].find("rand"), std::string::npos);
}

TEST(DetlintLex, LiteralTableHasColumnCoordinates) {
  const auto lexed = lex_source("f(\"name\");\n");
  ASSERT_EQ(lexed.strings.size(), 1u);
  const StringLiteral* lit =
      lexed.literal_at(1, static_cast<std::size_t>(lexed.strings[0].col));
  ASSERT_NE(lit, nullptr);
  EXPECT_EQ(lit->value, "name");
}

// --- file model --------------------------------------------------------------

TEST(DetlintModel, HotRegionSpansBody) {
  std::vector<Finding> findings;
  const FileModel fm = build_file_model(
      "src/sim/t.h", "IBSEC_HOT void f() {\n  a();\n  b();\n}\nint g;\n",
      findings);
  ASSERT_EQ(fm.hot_regions.size(), 1u);
  EXPECT_EQ(fm.hot_regions[0].begin_line, 1);
  EXPECT_EQ(fm.hot_regions[0].end_line, 4);
}

TEST(DetlintModel, HotDeclarationOpensNoRegion) {
  std::vector<Finding> findings;
  const FileModel fm = build_file_model(
      "src/sim/t.h", "IBSEC_HOT void f();\nvoid f() { new int; }\n",
      findings);
  EXPECT_TRUE(fm.hot_regions.empty());
}

TEST(DetlintModel, BracedInitInsideParensKeepsRegionBalanced) {
  // Regression: the '}' of uint64_t{1} inside a macro argument list used to
  // close the region early, hiding everything after it from the pass.
  const auto findings = scan_source(
      "src/sim/t.h",
      "IBSEC_HOT void f() {\n"
      "  CHECK(x < (std::uint64_t{1} << 12));\n"
      "  heap_.push_back(1);\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 1u) << to_text(findings);
}

// --- layering ----------------------------------------------------------------

TEST(DetlintLayering, FixtureTreeReportsUpwardSiblingAndCycle) {
  const auto findings = analyze_fixture("layering_bad");
  EXPECT_EQ(count_rule(findings, "layering"), 3u) << to_text(findings);
  bool saw_upward = false, saw_sibling = false, saw_cycle = false;
  for (const Finding& f : findings) {
    if (f.message.find("strictly down the DAG") != std::string::npos) {
      saw_upward = true;
    }
    if (f.message.find("sibling leaf layers") != std::string::npos) {
      saw_sibling = true;
    }
    if (f.message.find("include cycle: sim/engine.h -> sim/other.h -> "
                       "sim/engine.h") != std::string::npos) {
      saw_cycle = true;
    }
  }
  EXPECT_TRUE(saw_upward) << to_text(findings);
  EXPECT_TRUE(saw_sibling) << to_text(findings);
  EXPECT_TRUE(saw_cycle) << to_text(findings);
}

// --- metric schema -----------------------------------------------------------

TEST(DetlintMetrics, GlobDistanceIntersectsAndMeasures) {
  EXPECT_EQ(glob_distance("*.lookups", "switch.*.filter.lookups"), 0);
  EXPECT_EQ(glob_distance("link.*.packets", "link.*.packets"), 0);
  EXPECT_EQ(glob_distance("*forwrded", "link.*.forwarded"), 1);
  EXPECT_GT(glob_distance("sm.traps_received", "auth.signed"), 2);
}

TEST(DetlintMetrics, ExtractTurnsRuntimePartsIntoWildcards) {
  std::vector<Finding> findings;
  const FileModel fm = build_file_model(
      "src/fabric/t.cpp",
      "void f(Reg& reg, const std::string& p) {\n"
      "  reg.counter(p + \"packets\");\n"
      "  reg.gauge(\"link.\" + name() + \".depth\");\n"
      "  reg.counter(fully_dynamic);\n"
      "}\n",
      findings);
  const auto uses = extract_metric_uses(fm);
  ASSERT_EQ(uses.size(), 2u);  // the pure-'*' pattern is dropped
  EXPECT_EQ(uses[0].pattern, "*packets");
  EXPECT_EQ(uses[1].pattern, "link.*.depth");
}

TEST(DetlintMetrics, SchemaLoaderReadsPatternsAndDynamicTags) {
  MetricSchema schema;
  std::string error;
  ASSERT_TRUE(load_metric_schema(
      fixture_path("metrics_bad/schema.md"), schema, error))
      << error;
  ASSERT_EQ(schema.entries.size(), 4u);
  EXPECT_EQ(schema.entries[0].pattern, "link.*.packets");
  EXPECT_FALSE(schema.entries[0].dynamic);
  EXPECT_TRUE(schema.entries[3].dynamic);
}

TEST(DetlintMetrics, FixtureTreeReportsTypoAndUnusedRows) {
  const auto findings = analyze_fixture(
      "metrics_bad/src", fixture_path("metrics_bad/schema.md"));
  EXPECT_EQ(count_rule(findings, "metric-schema"), 1u) << to_text(findings);
  // The typo'd registration never lands, so its intended row is unused too.
  EXPECT_EQ(count_rule(findings, "schema-unused"), 2u) << to_text(findings);
  bool saw_suggestion = false;
  for (const Finding& f : findings) {
    if (f.message.find("did you mean 'link.*.forwarded'") !=
        std::string::npos) {
      saw_suggestion = true;
    }
  }
  EXPECT_TRUE(saw_suggestion) << to_text(findings);
}

// --- waiver audit ------------------------------------------------------------

TEST(DetlintWaivers, StaleWaiverIsReportedLiveOneIsNot) {
  const auto findings = analyze_fixture("stale_waiver.cpp");
  EXPECT_EQ(count_rule(findings, "unused-allow"), 1u) << to_text(findings);
  EXPECT_EQ(count_rule(findings, "raw-rand"), 0u) << to_text(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 7);
}

// --- hot-path fixtures -------------------------------------------------------

TEST(DetlintHotpath, BadFixtureTriggersEveryConstruct) {
  const auto findings = analyze_fixture("hotpath_bad.cpp");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 8u) << to_text(findings);
  EXPECT_EQ(findings.size(), 8u) << to_text(findings);
}

TEST(DetlintHotpath, CleanFixtureIsClean) {
  const auto findings = analyze_fixture("hotpath_clean.cpp");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintHotpath, LexerEdgesFixtureHidesQuotedViolations) {
  const auto findings = analyze_fixture("lexer_edges.cpp");
  ASSERT_EQ(findings.size(), 1u) << to_text(findings);
  EXPECT_EQ(findings[0].rule, "raw-rand");
  EXPECT_EQ(findings[0].line, 21);
}

// --- reports -----------------------------------------------------------------

TEST(DetlintReport, SarifNamesDriverRulesAndLocations) {
  const std::vector<Finding> findings = {
      Finding{"src/fabric/link.cpp", 42, "hot-alloc", "msg", "snippet"}};
  const std::string sarif = to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"detlint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"hot-alloc\""), std::string::npos);
  EXPECT_NE(sarif.find("src/fabric/link.cpp"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":42"), std::string::npos);
}

TEST(DetlintReport, BaselineRoundTripSuppressesKnownFindings) {
  const std::vector<Finding> old_findings = {
      Finding{"src/a.cpp", 10, "hot-alloc", "m", "x.push_back(1);"},
      Finding{"src/b.cpp", 20, "layering", "m", "#include \"sim/s.h\""}};
  const std::string path =
      testing::TempDir() + "/detlint_baseline_test.txt";
  {
    std::ofstream out(path);
    out << to_baseline(old_findings);
  }
  std::vector<std::string> keys;
  std::string error;
  ASSERT_TRUE(load_baseline(path, keys, error)) << error;
  EXPECT_EQ(keys.size(), 2u);

  // Same findings on different lines stay suppressed; a new one surfaces.
  std::vector<Finding> now = old_findings;
  now[0].line = 99;
  now.push_back(Finding{"src/c.cpp", 1, "raw-rand", "m", "rand();"});
  const auto fresh = filter_new_findings(now, keys);
  ASSERT_EQ(fresh.size(), 1u) << to_text(fresh);
  EXPECT_EQ(fresh[0].file, "src/c.cpp");
  std::remove(path.c_str());
}

TEST(DetlintReport, BaselineIsMultisetNotSet) {
  const std::vector<Finding> pair = {
      Finding{"src/a.cpp", 1, "hot-alloc", "m", "q.push_back(1);"},
      Finding{"src/a.cpp", 2, "hot-alloc", "m", "q.push_back(1);"}};
  std::vector<std::string> keys = {baseline_key(pair[0])};
  const auto fresh = filter_new_findings(pair, keys);
  EXPECT_EQ(fresh.size(), 1u);  // one budgeted, one genuinely new
}

// --- the real tree under the full analyzer -----------------------------------

TEST(DetlintCleanTree, FullAnalyzerWithSchemaIsClean) {
  AnalyzerOptions options;
  options.paths = {std::string(IBSEC_SOURCE_ROOT) + "/src"};
  options.schema_path =
      std::string(IBSEC_SOURCE_ROOT) + "/docs/metrics_schema.md";
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(analyze_project(options, findings, error)) << error;
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

}  // namespace
}  // namespace ibsec::detlint
