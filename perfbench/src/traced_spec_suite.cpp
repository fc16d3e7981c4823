// The traced SPEC suite (see traced_spec.h).
#include "traced_spec.h"

#include "workloads/spec_suite.cpp"

namespace perfbench {

std::vector<TracedMini> traced_minis(polar::TypeRegistry& registry) {
  std::vector<TracedMini> minis;
  for (auto& e : polar::traced_spec::build_spec_suite(registry)) {
    minis.push_back({e.name, std::move(e.run_polar)});
  }
  return minis;
}

}  // namespace perfbench
