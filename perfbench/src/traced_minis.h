// The SPEC minis compiled over TimedSpace<PolarSpace> (traced_spec.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/space.h"
#include "trace.h"

namespace perfbench {

struct TracedMini {
  std::string name;
  std::function<std::uint64_t(TimedSpace<polar::PolarSpace>&,
                              std::uint32_t scale, std::uint64_t seed)>
      run;
};

/// Registers the minis' types into `registry` (once per registry) and
/// returns the suite in the library's order.
std::vector<TracedMini> traced_minis(polar::TypeRegistry& registry);

}  // namespace perfbench
