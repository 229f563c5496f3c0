// The paper's reproduction as functions: Figs. 1/5/6, Table 2 and the
// supporting benches and ablations. Each figure runs its fixed scenarios,
// writes its table to a string and returns its shape verdict. The
// `figures` driver prints them; tests/test_figures.cpp compares each text
// byte for byte with bench/expected/<name>.txt and requires the verdict.
#pragma once

#include <span>
#include <string>

#include "fabric/topology_spec.h"

namespace ibsec::bench {

struct FigureResult {
  std::string text;     ///< exactly what `figures <name>` prints
  bool passed = false;  ///< the REPRODUCED / CONFIRMED verdict it states
};

struct Figure {
  const char* name;
  /// Whether `--topology` applies (fig1, saturation). The other figures
  /// are fixed reproductions and ignore their argument.
  bool takes_topology;
  FigureResult (*run)(const fabric::TopologySpec& topology);
};

/// Every figure, in the order `figures` with no names prints them.
std::span<const Figure> all_figures();

}  // namespace ibsec::bench
