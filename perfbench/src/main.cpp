// perfbench — the end-to-end benchmark of the POLaR runtime. Run it through
// perfbench/run.py, which builds this program and passes the arguments:
//
//   perfbench --workload kv_hot|kv_large|spec_mini --seed N --seconds S
//             --trace 0|1 [--spans-out FILE] [--corrupt-reference]
//
// Every line before the last is a human-readable report (each metric by
// name, value and unit, with its sample count); the last line is one JSON
// object with the keys correct, attempted, failed and metrics. --trace 0
// prints the gated end-to-end metrics, --trace 1 the per-layer ledger.
// The exit code is 0 only when every correctness check passed.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "core/session.h"
#include "workloads/server/types.h"

namespace perfbench {

std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * 4096;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

/// Nearest-rank q-quantile of `v` (reorders it; v must not be empty).
double quantile(std::vector<std::int64_t>& v, double q) {
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  const auto it = v.begin() + static_cast<std::ptrdiff_t>(
                                  std::clamp<std::size_t>(rank, 1, v.size()) -
                                  1);
  std::nth_element(v.begin(), it, v.end());
  return static_cast<double>(*it);
}

double sum(const std::vector<std::int64_t>& v) {
  double s = 0;
  for (const std::int64_t x : v) s += static_cast<double>(x);
  return s;
}

}  // namespace

void Rounds::close() {
  polar_ops += polar_ns.size();
  extra_ns.push_back((sum(polar_ns) - sum(direct_ns)) /
                     static_cast<double>(polar_ns.size()));
  polar_s.push_back(sum(polar_ns) / 1e9);
  direct_s.push_back(sum(direct_ns) / 1e9);
  p50_x.push_back(quantile(polar_ns, 0.50) / quantile(direct_ns, 0.50));
  p99_x.push_back(quantile(polar_ns, 0.99) / quantile(direct_ns, 0.99));
  for (const std::int64_t ns : polar_ns) polar_lat.add(ns);
  for (const std::int64_t ns : direct_ns) direct_lat.add(ns);
  polar_ns.clear();
  direct_ns.clear();
}

void report_timing(Rounds& rounds, const std::string& op_name,
                   const std::string& round_name, Results& out) {
  double busy = 0;
  std::vector<double> ratio;
  for (std::size_t i = 0; i < rounds.polar_s.size(); ++i) {
    busy += rounds.polar_s[i];
    ratio.push_back(rounds.polar_s[i] / rounds.direct_s[i]);
  }
  Latencies& p = rounds.polar_lat;
  Latencies& d = rounds.direct_lat;
  const std::string n = "n=" + std::to_string(p.count()) + " " + op_name;
  const std::string r =
      "median of " + std::to_string(ratio.size()) + " " + round_name;
  out.metric("overhead_x", median(ratio), "x",
             "POLaR time / Direct time on the same inputs, " + r);
  out.metric("req_p50_x", median(rounds.p50_x), "x",
             "POLaR p50 / Direct p50 within a round, " + r + ", " + n);

  auto info = [&](const std::string& name, double polar, double direct,
                  const std::string& unit, const std::string& note) {
    out.info("info   " + name + " " + std::to_string(polar) + " " + unit +
             " (Direct " + std::to_string(direct) + "; " + note +
             "; not gated)");
  };
  double direct_busy = 0;
  for (const double x : rounds.direct_s) direct_busy += x;
  const auto ops = static_cast<double>(rounds.polar_ops);
  info("req_per_s", ops / busy, ops / direct_busy, "1/s",
       op_name + " per second of serving, " + n);
  info("req_p50_us", p.quantile_us(0.50), d.quantile_us(0.50), "us", n);
  info("req_p99_us", p.quantile_us(0.99), d.quantile_us(0.99), "us", n);
  info("req_p999_us", p.quantile_us(0.999), d.quantile_us(0.999), "us", n);
  out.info("info   req_p99_x " + std::to_string(median(rounds.p99_x)) +
           " x (POLaR p99 / Direct p99 within a round, " + r +
           "; not gated: on kv_large it moves 1.5x with host memory "
           "contention)");
  info("suite_s", median(rounds.polar_s), median(rounds.direct_s), "s", r);
  out.info("info   overhead_ns_per_op " +
           std::to_string(median(rounds.extra_ns)) +
           " ns (POLaR time - Direct time per " + op_name + ", " + r +
           "; unlike the ratios, a cost added to code both sides share "
           "leaves it unchanged; not gated: absolute time)");
}

double cold_setup(const std::function<double(Results&)>& fn, Results& out) {
  struct Report {
    double seconds;
    std::uint64_t failed;
  };
  int fds[2];
  if (pipe(fds) != 0) {
    out.fail("cold set-up: pipe failed");
    return 0;
  }
  std::fflush(stdout);  // or the child would print this buffer again
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    Results child;
    const Report r{fn(child), child.failed()};
    std::fflush(stdout);
    const bool sent = write(fds[1], &r, sizeof r) == sizeof r;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Report r{0, 0};
  const bool got = pid > 0 && read(fds[0], &r, sizeof r) == sizeof r;
  close(fds[0]);
  int status = 1;
  if (pid > 0) waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.fail("cold set-up: child process did not report");
  } else if (r.failed != 0) {
    out.fail("cold set-up: checks failed in the child", r.failed);
  }
  return r.seconds;
}

void report_setup(const std::vector<double>& setup_s, const std::string& what,
                  Results& out) {
  out.metric("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) +
                 " cold set-ups, " + what);
}

void check_runtime(const polar::Runtime& rt, const std::string& phase,
                   Results& out) {
  const std::uint64_t reports = rt.policy_engine().total_reports();
  if (reports != 0) out.fail(phase + ": runtime violation reports", reports);
  const polar::RuntimeStats s = rt.stats();
  if (s.uaf_detected != 0) {
    out.fail(phase + ": use-after-free detections", s.uaf_detected);
  }
  if (s.fastpath_hits == 0 || s.stateless_accesses != 0) {
    out.fail(phase + ": stored-backend dispatch self-check (fastpath_hits=" +
             std::to_string(s.fastpath_hits) + ", stateless_accesses=" +
             std::to_string(s.stateless_accesses) + ")");
  }
}

namespace {

/// Whether the library itself was compiled with its trace hooks: a runtime
/// sampling every operation records events only if it was.
bool library_traces() {
  polar::TypeRegistry registry;
  const polar::server::ServerTypes types =
      polar::server::register_types(registry);
  polar::RuntimeConfig rc = runtime_config(1);
  rc.trace_sample_interval = 1;
  polar::Runtime rt(registry, rc);
  polar::Session session(rt);
  const auto ref = session.create(types.request);
  if (ref.ok()) (void)session.destroy(ref.value());
  return rt.trace_ring_stats().recorded != 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kv_hot|kv_large|spec_mini --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE] [--corrupt-reference]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& v) {
  char* end = nullptr;
  errno = 0;
  v = std::strtoull(s, &end, 10);
  return *s != '\0' && *end == '\0' && errno == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed threshold turns off glibc's adaptive one, under which a large
  // calloc (a 4 MiB pagemap leaf) is served from the heap and zeroed, or
  // mapped lazily, depending on what was freed before: kv_large's
  // resident growth then reads 22.3 or 26.1 MB from seed to seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, a.seed)) return usage("--seed needs an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds > 0)) {
        return usage("--seconds needs a positive number");
      }
    } else if (flag == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage("--trace needs 0 or 1");
      a.trace = n == 1;
      have_trace = true;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_trace) return usage("--seed and --trace are required");
  const bool kv = a.workload == "kv_hot" || a.workload == "kv_large";
  if (!kv && a.workload != "spec_mini") return usage("unknown workload");

  Results out;
  const bool bench_traces = polar::Runtime::trace_compiled_in();
  out.info(std::string("info   build ") + PERFBENCH_BUILD_TYPE +
           ", POLAR_TRACE_ENABLED benchmark=" + (bench_traces ? "1" : "0") +
           ", backend stored" + (a.trace ? ", traced run" : ", gated run"));
  if (kv) {
    run_kv(a, out);
  } else {
    run_spec(a, out);
  }
  // After the workload, whose cold set-ups need an allocator no runtime
  // has used yet.
  const bool lib_traces = library_traces();
  out.info(std::string("info   POLAR_TRACE_ENABLED library=") +
           (lib_traces ? "1" : "0"));
  if (lib_traces != bench_traces) {
    out.fail("benchmark and library disagree on POLAR_TRACE_ENABLED");
  }
  return out.finish();
}
