// SPEC minis of src/workloads/spec_group1.cpp over TimedSpace (see
// traced_spec.h).
#include "traced_spec.h"

#include "workloads/spec_group1.cpp"
