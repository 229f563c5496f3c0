// The paper gate: every figure, table and ablation (bench/figures.h) must
// print exactly its committed bench/expected/<name>.txt and hold its
// verdict. The byte comparison catches a drift that leaves the verdict
// standing; the verdict catches a reproduction that no longer holds.
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figures.h"

namespace {

using ibsec::bench::all_figures;
using ibsec::bench::Figure;

/// An index into all_figures(), so that the ctest id carries the figure's
/// name and never pointer bytes.
struct FigureCase {
  std::size_t index;
  const Figure& figure() const { return all_figures()[index]; }
};

void PrintTo(const FigureCase& c, std::ostream* os) { *os << c.figure().name; }

std::string read_expected(const char* name) {
  std::ifstream in(std::string(IBSEC_SOURCE_ROOT) + "/bench/expected/" + name +
                   ".txt");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class FigureGate : public ::testing::TestWithParam<FigureCase> {};

TEST_P(FigureGate, MatchesExpectedAndHoldsVerdict) {
  const Figure& figure = GetParam().figure();
  const std::string expected = read_expected(figure.name);
  ASSERT_FALSE(expected.empty())
      << "missing bench/expected/" << figure.name << ".txt";
  const ibsec::bench::FigureResult result = figure.run({});
  EXPECT_EQ(result.text, expected) << figure.name << " drifted";
  EXPECT_TRUE(result.passed) << figure.name << " verdict failed";
}

std::vector<FigureCase> all_cases() {
  std::vector<FigureCase> cases;
  for (std::size_t i = 0; i < all_figures().size(); ++i) cases.push_back({i});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureGate, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<FigureCase>& info) {
                           return std::string(info.param.figure().name);
                         });

}  // namespace
