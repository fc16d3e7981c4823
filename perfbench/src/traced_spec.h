// Recompiles the SPEC minis over TimedSpace for the traced run.
//
// The library binds each mini to the concrete PolarSpace in its SpecEntry,
// so a decorator cannot be slipped in at run time. Each traced_spec_*.cpp
// file includes this header and then one mini source file from
// src/workloads/ unchanged: the macro below moves that source into the
// namespace polar::traced_spec, where the name PolarSpace refers to the
// timing decorator. Every header the mini sources need is included first,
// so the renaming touches only the mini sources. Gated runs use the
// library's own compiled minis; none of this code runs there.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "core/space.h"
#include "fuzz/coverage.h"
#include "support/hash.h"
#include "support/rng.h"
#include "taint/tainted.h"
#include "taintclass/taint_space.h"
#include "trace.h"
#include "traced_minis.h"

namespace polar::traced_spec {
using PolarSpace = perfbench::TimedSpace<polar::PolarSpace>;
}  // namespace polar::traced_spec

#define spec traced_spec
