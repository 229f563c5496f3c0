// figures — prints the paper's reproduced figures, tables and ablations
// (bench/figures.h) and exits 1 when any of their verdicts fails.
//
//   figures                               every figure, in order
//   figures fig5 table2                   only the ones named
//   figures fig1 --topology fattree:k=4   Fig. 1 off the 4x4 mesh
//
// `--topology SPEC` applies to fig1 and saturation only; with any other
// figure selected, including the default of all of them, it is a usage
// error.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/figures.h"

using namespace ibsec;

namespace {

int usage() {
  std::fprintf(stderr, "usage: figures [NAME...] [--topology SPEC]\nNAME:");
  for (const bench::Figure& f : bench::all_figures()) {
    std::fprintf(stderr, " %s", f.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const bench::Figure*> selected;
  fabric::TopologySpec topology;
  const char* topology_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--topology" && i + 1 < argc) {
      topology_arg = argv[++i];
      const auto spec = fabric::TopologySpec::parse(topology_arg);
      if (!spec) {
        std::fprintf(stderr, "bad --topology spec: %s\n", topology_arg);
        return 2;
      }
      topology = *spec;
      continue;
    }
    const bench::Figure* named = nullptr;
    for (const bench::Figure& f : bench::all_figures()) {
      if (arg == f.name) named = &f;
    }
    if (named == nullptr) {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return usage();
    }
    selected.push_back(named);
  }
  if (selected.empty()) {
    for (const bench::Figure& f : bench::all_figures()) selected.push_back(&f);
  }
  if (topology_arg != nullptr) {
    for (const bench::Figure* f : selected) {
      if (!f->takes_topology) {
        std::fprintf(stderr, "--topology does not apply to %s\n", f->name);
        return usage();
      }
    }
  }

  bool all_passed = true;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) std::fputs("\n", stdout);
    const bench::FigureResult r = selected[i]->run(topology);
    std::fwrite(r.text.data(), 1, r.text.size(), stdout);
    std::fflush(stdout);
    all_passed = all_passed && r.passed;
  }
  return all_passed ? 0 : 1;
}
