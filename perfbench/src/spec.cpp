// spec_mini: passes over the 12 SPEC minis (src/workloads/spec_*.cpp)
// through PolarSpace at a fixed scale, one thread. One operation is one
// mini run; a pass is the 12 runs in suite order.
//
// Gated run: a Direct pass gives the reference checksums, then the POLaR
// instance is set up (types, Runtime, a warm-up pass); the resident-memory
// reading is taken here. In the timed phase POLaR and Direct take turns,
// mini by mini, and every run is timed. setup_s is the median of this
// set-up and earlier ones, each made in a child process from the cold
// allocator (cold_setup).
//
// Traced run: the untraced minis, Direct, and the minis recompiled over
// TimedSpace (traced_spec.h) with the timed allocator hooks take turns,
// mini by mini. The minis use PolarSpace directly, so no adapter layer is
// on this path and adapter.ns_per_op is 0 by construction.
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "trace.h"
#include "traced_minis.h"
#include "workloads/spec_suite.h"

namespace perfbench {
namespace {

using namespace polar;

constexpr std::uint32_t kScale = 10;  ///< scale of every pass
constexpr int kSetups = 7;

/// Inputs of pass `k` of a run: every pass draws fresh inputs, so that a
/// run's figures do not hang on what one input set happens to do.
std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * (std::uint64_t{1} << 20) + k;
}

/// One process running the library's compiled minis over Space.
template <class Space>
struct Instance {
  explicit Instance(std::uint64_t seed)
      : suite(spec::build_spec_suite(registry)), space(make_space(seed)) {}

  Space make_space(std::uint64_t seed) {
    if constexpr (std::is_same_v<Space, DirectSpace>) {
      (void)seed;
      return DirectSpace(registry);
    } else {
      rt = std::make_unique<Runtime>(registry, runtime_config(seed));
      return PolarSpace(*rt);
    }
  }

  std::uint64_t run(std::size_t i, std::uint64_t seed) {
    if constexpr (std::is_same_v<Space, DirectSpace>) {
      return suite[i].run_direct(space, kScale, seed);
    } else {
      return suite[i].run_polar(space, kScale, seed);
    }
  }

  TypeRegistry registry;
  std::vector<spec::SpecEntry> suite;
  std::unique_ptr<Runtime> rt;  ///< POLaR only
  Space space;
};

/// Checksums of one pass over every mini.
template <class Space>
std::vector<std::uint64_t> pass(Instance<Space>& inst, std::uint64_t seed) {
  std::vector<std::uint64_t> sums;
  for (std::size_t i = 0; i < inst.suite.size(); ++i) {
    sums.push_back(inst.run(i, seed));
  }
  return sums;
}

/// Passes in which POLaR and Direct take turns mini by mini on the same
/// inputs, until `seconds` have passed; every POLaR checksum must equal
/// Direct's (the negative control perturbs Direct's). Returns the mini
/// runs POLaR made.
std::uint64_t take_turns(Instance<PolarSpace>& polar,
                         Instance<DirectSpace>& direct, std::uint64_t seed,
                         double seconds, bool corrupt, Rounds& rounds,
                         Results& out) {
  const std::size_t n = polar.suite.size();
  std::uint64_t ops = 0;
  const std::int64_t start = now_ns();
  for (std::uint64_t k = 1;; ++k) {
    const std::uint64_t s = pass_seed(seed, k);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t t0 = now_ns();
      const std::uint64_t sum = polar.run(i, s);
      const std::int64_t t1 = now_ns();
      const std::uint64_t want = direct.run(i, s) ^ (corrupt ? 1 : 0);
      const std::int64_t t2 = now_ns();
      out.expect_eq("timed " + polar.suite[i].name + " checksum vs Direct",
                    sum, want);
      rounds.polar_ns.push_back(t1 - t0);
      rounds.direct_ns.push_back(t2 - t1);
    }
    rounds.close();
    ops += n;
    if (static_cast<double>(now_ns() - start) >= seconds * 1e9) break;
  }
  return ops;
}

/// Builds a POLaR instance and runs its warm-up pass, whose checksums
/// must equal `want`.
std::unique_ptr<Instance<PolarSpace>> set_up(
    std::uint64_t seed, const std::vector<std::uint64_t>& want,
    double& setup_s, Results& out) {
  const std::int64_t t0 = now_ns();
  auto inst = std::make_unique<Instance<PolarSpace>>(seed);
  const std::vector<std::uint64_t> sums = pass(*inst, pass_seed(seed, 0));
  setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    out.expect_eq("warm-up " + inst->suite[i].name + " checksum vs Direct",
                  sums[i], want[i]);
  }
  return inst;
}

/// Direct's warm-up checksums, perturbed for the negative control.
std::vector<std::uint64_t> warm_reference(Instance<DirectSpace>& direct,
                                          std::uint64_t seed, bool corrupt) {
  std::vector<std::uint64_t> sums = pass(direct, pass_seed(seed, 0));
  if (corrupt) {
    for (std::uint64_t& c : sums) c ^= 1;
  }
  return sums;
}

void gated(const Args& a, Results& out) {
  Rounds rounds;
  Instance<DirectSpace> direct(a.seed);
  const std::vector<std::uint64_t> want =
      warm_reference(direct, a.seed, a.corrupt_reference);

  // Every set-up but the last runs in a child process of its own, from the
  // cold allocator; the last runs here and is then timed.
  std::vector<double> setup_s;
  for (int k = 1; k < kSetups; ++k) {
    setup_s.push_back(cold_setup(
        [&](Results& r) {
          double s = 0;
          auto inst = set_up(a.seed, want, s, r);
          check_runtime(*inst->rt, "set-up", r);
          return s;
        },
        out));
  }
  const std::uint64_t rss0 = resident_bytes();
  double s = 0;
  auto inst = set_up(a.seed, want, s, out);
  const double mem_mb = static_cast<double>(resident_bytes() - rss0) / 1e6;
  setup_s.push_back(s);
  out.add_attempted(take_turns(*inst, direct, a.seed, a.seconds,
                               a.corrupt_reference, rounds, out));
  check_runtime(*inst->rt, "timed passes", out);

  report_timing(rounds, "mini runs",
                "passes (scale " + std::to_string(kScale) + ")", out);
  out.metric("mem_mb", mem_mb, "MB",
             "resident growth over the set-up: types, runtime, warm-up pass");
  report_setup(setup_s, "warm-up pass", out);
}

void traced(const Args& a, Results& out) {
  Tracer tracer(std::size_t{1} << 19, 1, 4096);
  RuntimeConfig rc = runtime_config(a.seed);
  rc.alloc_fn = timed_allocate;
  rc.free_fn = timed_deallocate;
  rc.alloc_ctx = &tracer;

  Instance<DirectSpace> direct(a.seed);
  double setup_s = 0;
  auto polar = set_up(a.seed,
                      warm_reference(direct, a.seed, a.corrupt_reference),
                      setup_s, out);
  TypeRegistry registry;
  const std::vector<TracedMini> minis = traced_minis(registry);
  Runtime rt(registry, rc);
  PolarSpace inner(rt);
  TimedSpace<PolarSpace> space(inner, tracer);
  for (const TracedMini& m : minis) {
    m.run(space, kScale, pass_seed(a.seed, 0));  // warm-up
  }
  TracedPhase traced(rt, tracer);

  // Passes in which the untraced minis, Direct and the traced minis take
  // turns mini by mini on the same inputs.
  std::vector<double> polar_s;
  std::vector<double> direct_s;
  std::vector<double> traced_s;
  std::uint64_t ops = 0;
  const std::int64_t start = now_ns();
  for (std::uint64_t k = 1;; ++k) {
    const std::uint64_t input = pass_seed(a.seed, k);
    std::int64_t ns[3] = {0, 0, 0};
    for (std::size_t i = 0; i < minis.size(); ++i) {
      const std::int64_t t0 = now_ns();
      const std::uint64_t sum = polar->run(i, input);
      const std::int64_t t1 = now_ns();
      const std::uint64_t want =
          direct.run(i, input) ^ (a.corrupt_reference ? 1 : 0);
      const std::int64_t t2 = now_ns();
      // Outside the timed span: begin_turn() measures the tracer's own
      // per-span cost and reads the heap counters.
      traced.begin_turn();
      const std::int64_t t3 = now_ns();
      tracer.begin_op(ops);
      const std::uint64_t traced_sum = minis[i].run(space, kScale, input);
      tracer.end_op();
      const std::int64_t t4 = now_ns();
      traced.end_turn(1);
      out.expect_eq(minis[i].name + " checksum vs Direct", sum, want);
      out.expect_eq(minis[i].name + " traced checksum vs Direct", traced_sum,
                    want);
      ns[0] += t1 - t0;
      ns[1] += t2 - t1;
      ns[2] += t4 - t3;
      ++ops;
    }
    polar_s.push_back(static_cast<double>(ns[0]) / 1e9);
    direct_s.push_back(static_cast<double>(ns[1]) / 1e9);
    traced_s.push_back(static_cast<double>(ns[2]) / 1e9);
    if (static_cast<double>(now_ns() - start) >= a.seconds * 1e9) break;
  }
  out.add_attempted(ops);
  check_runtime(*polar->rt, "untraced passes", out);
  check_runtime(rt, "traced passes", out);

  LayerReport layers = traced.report(rt);
  const auto n = static_cast<double>(minis.size());
  layers.traced_ns_per_op = median(traced_s) * 1e9 / n;
  layers.untraced_ns_per_op = median(polar_s) * 1e9 / n;
  layers.adapter_ns_per_op = 0;
  layers.direct_ns_per_op = median(direct_s) * 1e9 / n;
  layers.direct_suite_s = median(direct_s);
  layers.emit(out);

  if (!a.spans_out.empty()) write_spans(tracer, a.spans_out, out);
}

}  // namespace

void run_spec(const Args& a, Results& out) {
  out.info("info   workload spec_mini: 12 minis, scale " +
           std::to_string(kScale) + ", seed " + std::to_string(a.seed));
  if (a.trace) {
    traced(a, out);
  } else {
    gated(a, out);
  }
}

}  // namespace perfbench
