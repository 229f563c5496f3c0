// Fabric-wide switch totals for tests: one ObsHandles counter summed over
// every switch. The counter is named by member pointer, so a typo fails to
// compile instead of reading an empty total.
#pragma once

#include <cstdint>

#include "fabric/topology.h"

namespace ibsec::fabric {

inline std::uint64_t switch_total(Fabric& fabric,
                                  obs::Counter* Switch::ObsHandles::*counter) {
  std::uint64_t total = 0;
  for (int s = 0; s < fabric.switch_count(); ++s) {
    total += (fabric.switch_at(s).obs().*counter)->value();
  }
  return total;
}

}  // namespace ibsec::fabric
