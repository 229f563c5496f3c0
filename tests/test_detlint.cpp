// detlint's own test suite: every rule must fire on a seeded violation,
// stay quiet on idiomatic simulator code, honor the ALLOW grammar, and —
// the point of the whole tool — report the real src/ tree clean.
#include "detlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace ibsec::detlint {
namespace {

std::size_t count_rule(const std::vector<Finding>& findings,
                       std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// --- per-rule triggers -------------------------------------------------------

TEST(DetlintRules, UnorderedContainerUseIsFlagged) {
  const auto findings = scan_source(
      "src/x.h", "std::unordered_map<int, int> table;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-container");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[0].file, "src/x.h");
}

TEST(DetlintRules, UnorderedSetAndMultiVariantsAreFlagged) {
  const auto findings = scan_source("src/x.h",
                                    "std::unordered_set<int> a;\n"
                                    "std::unordered_multimap<int, int> b;\n"
                                    "std::unordered_multiset<int> c;\n");
  EXPECT_EQ(count_rule(findings, "unordered-container"), 3u);
}

TEST(DetlintRules, UnorderedIncludeLineAloneIsNotFlagged) {
  const auto findings =
      scan_source("src/x.h", "#include <unordered_map>\n");
  EXPECT_TRUE(findings.empty());
}

TEST(DetlintRules, RawRandCallsAreFlagged) {
  const auto findings = scan_source("src/x.cpp",
                                    "int a = rand();\n"
                                    "srand(7);\n"
                                    "std::random_device rd;\n"
                                    "std::mt19937 gen;\n");
  EXPECT_EQ(count_rule(findings, "raw-rand"), 4u);
}

TEST(DetlintRules, RngLibraryItselfIsExempt) {
  EXPECT_TRUE(
      scan_source("src/common/rng.cpp", "std::mt19937 gen;\n").empty());
  EXPECT_TRUE(
      scan_source("src/common/rng.h", "std::random_device rd;\n").empty());
  // But only those files — a lookalike elsewhere still fires.
  EXPECT_EQ(scan_source("src/workload/rng_helper.cpp", "std::mt19937 g;\n")
                .size(),
            1u);
}

TEST(DetlintRules, WallClockApisAreFlagged) {
  const auto findings =
      scan_source("src/x.cpp",
                  "auto t = std::chrono::steady_clock::now();\n"
                  "auto u = std::chrono::system_clock::now();\n"
                  "long v = time(nullptr);\n"
                  "gettimeofday(&tv, nullptr);\n");
  EXPECT_EQ(count_rule(findings, "wall-clock"), 4u);
}

TEST(DetlintRules, SimulatorClockMembersAreNotFlagged) {
  // sim.time(...) / q->time() are the simulator's own deterministic clock;
  // identifiers merely containing "time" are not calls to libc time().
  const auto findings = scan_source("src/x.cpp",
                                    "auto t = sim.time(now);\n"
                                    "auto u = queue->time();\n"
                                    "auto v = serialization_time_ps(b, r);\n"
                                    "SimTime when = entry.first_posted;\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintRules, PointerKeyedContainersAreFlagged) {
  const auto findings =
      scan_source("src/x.h",
                  "std::map<Port*, int> by_port;\n"
                  "std::set<const Device*> live;\n");
  EXPECT_EQ(count_rule(findings, "pointer-keyed-container"), 2u);
}

TEST(DetlintRules, ValueKeyedOrderedContainersAreNotFlagged) {
  const auto findings = scan_source(
      "src/x.h",
      "std::map<ib::Psn, RcSendEntry> window;\n"
      "std::map<std::pair<ib::Qpn, ib::Psn>, std::pair<std::uint64_t, "
      "std::uint32_t>> reads;\n"
      "std::map<std::string, std::unique_ptr<Metric>> metrics;\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintRules, RawAssertIsFlaggedButStaticAssertIsNot) {
  const auto findings =
      scan_source("src/x.cpp",
                  "assert(x > 0);\n"
                  "static_assert(sizeof(int) == 4);\n"
                  "IBSEC_CHECK(x > 0) << x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-assert");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(DetlintRules, ContractLibraryHeaderIsExemptFromRawAssert) {
  EXPECT_TRUE(
      scan_source("src/common/check.h", "assert(armed);\n").empty());
}

TEST(DetlintRules, StdFunctionInSimHeaderIsFlagged) {
  const auto findings = scan_source(
      "src/sim/x.h", "using Callback = std::function<void()>;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-function");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(DetlintRules, StdFunctionInFabricHeaderIsFlagged) {
  const auto findings = scan_source(
      "src/fabric/x.hpp", "std::function<void(int)> hook_;\n");
  EXPECT_EQ(count_rule(findings, "hot-function"), 1u);
}

TEST(DetlintRules, StdFunctionOutsideHotLayersIsNotFlagged) {
  // Cold layers (workload, obs, transport setup paths) may type-erase.
  EXPECT_TRUE(
      scan_source("src/workload/x.h", "std::function<void()> done_;\n")
          .empty());
  EXPECT_TRUE(scan_source("src/obs/x.h", "std::function<int()> probe_;\n")
                  .empty());
}

TEST(DetlintRules, StdFunctionInHotLayerCppIsNotFlagged) {
  // Implementation files are not part of the per-event structs/signatures;
  // the rule polices headers only.
  EXPECT_TRUE(
      scan_source("src/sim/x.cpp", "std::function<void()> local;\n").empty());
}

TEST(DetlintRules, UnqualifiedFunctionWordIsNotFlagged) {
  const auto findings = scan_source(
      "src/sim/x.h",
      "sim::InlineFunction<void()> cb;\n"
      "// a function pointer table\n"
      "int function = 3;\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintRules, HotFunctionAllowSuppresses) {
  const auto findings = scan_source(
      "src/fabric/x.h",
      "// set once at wiring, never per event "
      "IBSEC_DETLINT_ALLOW(hot-function)\n"
      "using ReceiveCallback = std::function<void(ib::Packet&&)>;\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

// --- lexing: comments and strings never trigger ------------------------------

TEST(DetlintLexing, CommentsAndStringsAreIgnored) {
  const auto findings = scan_source(
      "src/x.cpp",
      "// rand() and std::unordered_map<int,int> in prose\n"
      "/* time(nullptr) inside a block comment\n"
      "   spanning lines with assert(x) */\n"
      "const char* s = \"call rand() then time(nullptr)\";\n"
      "const char* r = R\"(assert(true) std::unordered_set<int>)\";\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintLexing, CodeAfterBlockCommentOnSameLineStillScans) {
  const auto findings =
      scan_source("src/x.cpp", "/* why */ int a = rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-rand");
}

// --- suppression grammar -----------------------------------------------------

TEST(DetlintAllow, SameLineSuppresses) {
  const auto findings = scan_source(
      "src/x.h",
      "std::unordered_map<int, int> t;  // "
      "IBSEC_DETLINT_ALLOW(unordered-container)\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintAllow, PrecedingLineSuppresses) {
  const auto findings =
      scan_source("src/x.h",
                  "// IBSEC_DETLINT_ALLOW(unordered-container)\n"
                  "std::unordered_map<int, int> t;\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintAllow, CommaSeparatedRuleListSuppressesBoth) {
  const auto findings = scan_source(
      "src/x.cpp",
      "// IBSEC_DETLINT_ALLOW(raw-rand, wall-clock)\n"
      "long t = rand() + time(nullptr);\n");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintAllow, WrongRuleDoesNotSuppress) {
  const auto findings =
      scan_source("src/x.h",
                  "// IBSEC_DETLINT_ALLOW(wall-clock)\n"
                  "std::unordered_map<int, int> t;\n");
  EXPECT_EQ(count_rule(findings, "unordered-container"), 1u);
}

TEST(DetlintAllow, TwoLinesAboveDoesNotSuppress) {
  const auto findings =
      scan_source("src/x.h",
                  "// IBSEC_DETLINT_ALLOW(unordered-container)\n"
                  "\n"
                  "std::unordered_map<int, int> t;\n");
  EXPECT_EQ(count_rule(findings, "unordered-container"), 1u);
}

TEST(DetlintAllow, UnknownRuleNameIsItselfAFinding) {
  const auto findings = scan_source(
      "src/x.h", "// IBSEC_DETLINT_ALLOW(unordred-container)\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bad-allow");
  EXPECT_NE(findings[0].message.find("unordred-container"),
            std::string::npos);
}

// --- output formats ----------------------------------------------------------

TEST(DetlintOutput, JsonIsWellFormedAndCountsFindings) {
  const auto findings =
      scan_source("src/x.cpp", "int a = rand();\n");
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\":\"raw-rand\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"file\":\"src/x.cpp\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":1"), std::string::npos) << json;
}

TEST(DetlintOutput, TextReportsCleanOnNoFindings) {
  EXPECT_NE(to_text({}).find("clean"), std::string::npos);
}

TEST(DetlintOutput, FindingsAreSortedByFileLineRule) {
  std::vector<Finding> findings = {
      {"b.cpp", 3, "raw-rand", "m", "s"},
      {"a.cpp", 9, "wall-clock", "m", "s"},
      {"a.cpp", 2, "raw-rand", "m", "s"},
  };
  sort_findings(findings);
  EXPECT_EQ(findings[0].file, "a.cpp");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 9);
  EXPECT_EQ(findings[2].file, "b.cpp");
}

// --- fixture files -----------------------------------------------------------
// The deliberately-seeded violation files under tests/detlint_fixtures/:
// every rule must be caught through the file-loading analyzer the CLI
// runs, and the fully-suppressed fixture must come back clean.

/// Every pass but the metric schema's over `path` (a file or directory).
std::vector<Finding> analyze_path(const std::string& path) {
  AnalyzerOptions options;
  options.paths = {path};
  std::vector<Finding> findings;
  std::string error;
  EXPECT_TRUE(analyze_project(options, findings, error)) << error;
  return findings;
}

std::vector<Finding> scan_fixture(const std::string& name) {
  return analyze_path(std::string(IBSEC_SOURCE_ROOT) +
                      "/tests/detlint_fixtures/" + name);
}

TEST(DetlintFixtures, UnorderedFixtureTriggersExactly) {
  const auto findings = scan_fixture("violations_unordered.cpp");
  EXPECT_EQ(count_rule(findings, "unordered-container"), 2u);
  EXPECT_EQ(findings.size(), 2u) << to_text(findings);
}

TEST(DetlintFixtures, RandClockFixtureTriggersExactly) {
  const auto findings = scan_fixture("violations_rand_clock.cpp");
  EXPECT_EQ(count_rule(findings, "raw-rand"), 3u) << to_text(findings);
  EXPECT_EQ(count_rule(findings, "wall-clock"), 2u) << to_text(findings);
  EXPECT_EQ(findings.size(), 5u) << to_text(findings);
}

TEST(DetlintFixtures, PtrAssertFixtureTriggersExactly) {
  const auto findings = scan_fixture("violations_ptr_assert.cpp");
  EXPECT_EQ(count_rule(findings, "pointer-keyed-container"), 2u)
      << to_text(findings);
  EXPECT_EQ(count_rule(findings, "raw-assert"), 1u) << to_text(findings);
  EXPECT_EQ(findings.size(), 3u) << to_text(findings);
}

TEST(DetlintFixtures, SuppressedFixtureIsClean) {
  const auto findings = scan_fixture("suppressed_clean.cpp");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintFixtures, MissingPathReportsError) {
  AnalyzerOptions options;
  options.paths = {"/nonexistent/detlint/path"};
  std::vector<Finding> findings;
  std::string error;
  EXPECT_FALSE(analyze_project(options, findings, error));
  EXPECT_FALSE(error.empty());
}

// --- the real tree is clean ----------------------------------------------------
// src/ is checked by every pass, schema included, in test_detlint_analysis
// and by the detlint_src_clean ctest.

TEST(DetlintCleanTree, DetlintItselfIsClean) {
  const auto findings =
      analyze_path(std::string(IBSEC_SOURCE_ROOT) + "/tools/detlint");
  EXPECT_TRUE(findings.empty()) << to_text(findings);
}

TEST(DetlintRules, RuleTableCoversAllEmittedRules) {
  for (const std::string_view name :
       {"unordered-container", "raw-rand", "wall-clock",
        "pointer-keyed-container", "raw-assert", "bad-allow"}) {
    EXPECT_TRUE(is_known_rule(name)) << name;
  }
  EXPECT_FALSE(is_known_rule("no-such-rule"));
}

}  // namespace
}  // namespace ibsec::detlint
