// Shared pieces of the benchmark program: arguments, the result sink that
// prints every metric by name and unit, exact latency order statistics,
// resident-memory readings, and the runtime configuration every measured
// POLaR run pins.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/runtime.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write their span table here (empty: not written).
  std::string spans_out;
  /// Negative control: perturb every Direct reference value before it is
  /// compared, so a correct program must fail the parity gate.
  bool corrupt_reference = false;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Collects the run's metrics and correctness failures, echoes each as a
/// human-readable line, and ends the run with the one-line JSON result.
class Results {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    std::printf("metric %-32s %.9g %s%s%s\n", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  ", note.c_str());
    metrics_.push_back({name, value, unit});
  }
  void info(const std::string& line) { std::printf("%s\n", line.c_str()); }

  /// Records a failed operation or correctness check; any failure makes
  /// the run incorrect and its exit code non-zero.
  void fail(const std::string& what, std::uint64_t count = 1) {
    std::printf("FAIL %s (%llu)\n", what.c_str(),
                static_cast<unsigned long long>(count));
    failed_ += count;
    correct_ = false;
  }
  /// Checks an equality the run depends on; a mismatch is one failure.
  void expect_eq(const std::string& what, std::uint64_t got,
                 std::uint64_t want) {
    if (got != want) {
      fail(what + ": got " + std::to_string(got) + ", expected " +
           std::to_string(want));
    }
  }
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Prints the final JSON line and returns the process exit code.
  int finish() {
    if (attempted_ == 0) fail("no operation was attempted");
    std::printf("info   failed_share %.9g (failed %llu of %llu attempted)\n",
                static_cast<double>(failed_) /
                    static_cast<double>(attempted_ == 0 ? 1 : attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct_ ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Exact order statistics of per-operation times at the clock's 1 ns
/// resolution, in fixed memory: a counting array covers [0, 2^20) ns and
/// the rarer longer times go to a list.
class Latencies {
 public:
  Latencies() : counts_(kDirect, 0), slow_(kSlowReserve, 0) { slow_.clear(); }

  void add(std::int64_t ns) {
    ++n_;
    if (ns >= 0 && ns < static_cast<std::int64_t>(kDirect)) {
      ++counts_[static_cast<std::size_t>(ns)];
    } else {
      slow_.push_back(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
    }
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }

  /// Nearest-rank quantile in microseconds (0 when empty).
  [[nodiscard]] double quantile_us(double q) {
    if (n_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_));
    if (static_cast<double>(rank) < q * static_cast<double>(n_)) ++rank;
    rank = std::clamp<std::uint64_t>(rank, 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns < kDirect; ++ns) {
      seen += counts_[ns];
      if (seen >= rank) return static_cast<double>(ns) / 1e3;
    }
    std::sort(slow_.begin(), slow_.end());
    return static_cast<double>(slow_[rank - seen - 1]) / 1e3;
  }

 private:
  static constexpr std::size_t kDirect = std::size_t{1} << 20;
  static constexpr std::size_t kSlowReserve = std::size_t{1} << 16;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> slow_;
  std::uint64_t n_ = 0;
};

/// The timed phase of a gated run. The POLaR program and the Direct
/// reference take turns on the same inputs, a short stretch each, so that
/// both sides of every ratio ran under the same host conditions: on a
/// shared host, other tenants slow whole stretches of a run (cache-bound
/// code by up to 1.5x, for seconds at a time, on the 4-vCPU KVM guest the
/// benchmark was tuned on). Absolute times move with that; ratios to
/// Direct mostly do not, so the gated timing metrics are ratios.
///
/// The ratios judge changes to what only the POLaR side runs (the runtime,
/// its metadata and layouts, the allocator, the space adapters). Code both
/// sides run (the workload engines, request parsing, the SPEC minis,
/// DirectSpace) adds the same cost c to both: P/D becomes (P+c)/(D+c), so
/// a slowdown there lowers the ratios. Such a change is read from the
/// absolute figures and overhead_ns_per_op (P - D), printed but not gated.
struct Rounds {
  std::vector<double> polar_s;   ///< seconds per POLaR round
  std::vector<double> direct_s;  ///< seconds per Direct round
  std::vector<double> extra_ns;  ///< per round: (POLaR - Direct) ns per op
  std::vector<double> p50_x;     ///< per round: POLaR p50 / Direct p50
  std::vector<double> p99_x;     ///< per round: POLaR p99 / Direct p99
  std::uint64_t polar_ops = 0;
  Latencies polar_lat;   ///< every POLaR operation's time
  Latencies direct_lat;  ///< every Direct operation's time

  /// Operation times (ns) of the open round, appended by the caller.
  std::vector<std::int64_t> polar_ns;
  std::vector<std::int64_t> direct_ns;

  /// Closes the open round: records its totals and percentile ratios.
  void close();
};

/// Emits overhead_x and req_p50_x from the rounds, and prints req_p99_x,
/// the absolute times (req_per_s, req_p50_us, req_p99_us, req_p999_us,
/// suite_s) and overhead_ns_per_op ungated. Operations are `op_name`, a
/// round is `round_name`.
void report_timing(Rounds& rounds, const std::string& op_name,
                   const std::string& round_name, Results& out);

/// Runs one set-up, `fn`, in a child process forked from this one and
/// returns the seconds it reports. ScalableHeap::process_heap() keeps every
/// chunk it has carved for the life of the process, so a second set-up in
/// one process would reuse resident slabs; a child starts from this
/// process's allocator state, which is cold as long as no POLaR runtime
/// has run here yet. `fn` checks its set-up on the Results it is given;
/// the child's failures are added to `out`.
double cold_setup(const std::function<double(Results&)>& fn, Results& out);

/// Emits setup_s from the timed set-ups.
void report_setup(const std::vector<double>& setup_s, const std::string& what,
                  Results& out);

/// Resident set size of this process in bytes (/proc/self/statm).
std::uint64_t resident_bytes();

/// Median of a non-empty sample.
double median(std::vector<double> xs);

/// The configuration of every measured POLaR runtime: the paper's stored
/// backend, pinned so that POLAR_BACKEND in the environment cannot change
/// what is measured, and violations reported (counted) rather than fatal.
inline polar::RuntimeConfig runtime_config(std::uint64_t seed) {
  polar::RuntimeConfig rc;
  rc.backend = polar::BackendConfig::stored();
  rc.on_violation = polar::ErrorAction::kReport;
  rc.seed = seed;
  return rc;
}

/// Correctness gate shared by every POLaR phase: no violation reports, no
/// detected use-after-free, and the stored backend's dispatch self-check
/// (a build whose POLAR_TRACE_ENABLED disagrees with the library's has
/// been seen to count stateless accesses as stored fast-path hits).
void check_runtime(const polar::Runtime& rt, const std::string& phase,
                   Results& out);

/// Runs the workload named in `args` and fills `out`.
void run_kv(const Args& args, Results& out);
void run_spec(const Args& args, Results& out);

}  // namespace perfbench
