// KV/HTTP workloads: the shipped Server<S> engine (src/workloads/server/)
// served closed loop, one client, one thread.
//
// Gated run: a Direct reference server is built and warmed, then the POLaR
// server (SessionSpace on the stored backend) is set up and warmed; the
// resident-memory reading is taken here, at a fixed population. In the
// timed phase the two servers take turns serving the same requests, one
// round of kRound requests each, and every POLaR request's service time is
// kept. setup_s is the median of this set-up and earlier ones, each made
// in a child process from the cold allocator (cold_setup).
//
// Traced run: four servers take turns on the same requests - SessionSpace
// and PolarSpace untraced (the reference rate and the adapter's cost),
// Direct, and SessionSpace traced through TimedSpace and the timed
// allocator hooks.
#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "core/session.h"
#include "layers.h"
#include "trace.h"
#include "workloads/server/request_gen.h"
#include "workloads/server/server.h"
#include "workloads/server/types.h"

namespace perfbench {
namespace {

using namespace polar;
using namespace polar::server;

/// Requests generated per run and served in a cycle; generation is input
/// preparation, outside set-up and outside the timed phase. The cycle also
/// bounds the key population, so the live set is steady once the warm-up
/// has served one full cycle.
constexpr std::uint64_t kPool = std::uint64_t{1} << 18;
/// Requests per round of the timed phase: a few ms of POLaR serving.
constexpr std::uint64_t kRound = std::uint64_t{1} << 12;
/// Responses buffered before the output buffer is recycled.
constexpr std::size_t kOutFlush = 4096;

struct KvShape {
  WorkloadConfig wl;
  ServerConfig srv;
  std::uint64_t warmup = 0;  ///< requests served during set-up
  int setups = 0;            ///< set-ups timed for the setup_s median
};

KvShape shape_for(const std::string& workload, std::uint64_t seed) {
  KvShape s;
  s.wl.seed = seed;
  s.wl.requests = kPool;
  if (workload == "kv_hot") {
    // Default mix and sizes: about 1k live objects, all hot in cache.
    s.warmup = std::uint64_t{1} << 16;
    s.setups = 7;
  } else {
    // kv_large: write-heavy, with a live set (~56k objects, ~22 MB with
    // their metadata) far beyond a core's 2 MB L2.
    s.wl.key_universe = 1u << 20;
    s.wl.hot_keys = 1u << 15;
    s.wl.max_conns = 4096;
    s.wl.max_sessions = 1u << 15;
    s.wl.get_pm = 450;
    s.wl.put_pm = 450;
    s.wl.del_pm = 50;
    s.srv.cache_capacity = 1u << 17;
    s.srv.max_conns = 4096;
    s.srv.session_ttl = std::uint64_t{1} << 40;
    s.warmup = 300'000;
    s.setups = 5;
  }
  return s;
}

/// One server process: its own type registry, runtime, adapter space and
/// engine. With kTimed the engine sees the adapter through TimedSpace.
template <class Adapter, bool kTimed>
struct Instance {
  using Front = std::conditional_t<kTimed, TimedSpace<Adapter>, Adapter&>;
  using Engine = Server<std::remove_reference_t<Front>>;

  Instance(const KvShape& shape, const RuntimeConfig& rc, Tracer* tracer)
      : types(register_types(registry)),
        rt(registry, rc),
        adapter(rt),
        front(make_front(adapter, tracer)),
        server(front, types, shape.srv) {}

  static Front make_front(Adapter& a, Tracer* tracer) {
    if constexpr (kTimed) {
      return TimedSpace<Adapter>(a, *tracer);
    } else {
      (void)tracer;
      return a;
    }
  }

  TypeRegistry registry;
  ServerTypes types;
  Runtime rt;
  Adapter adapter;
  Front front;
  Engine server;
};

/// Serves requests first .. first+count-1 of the cycled pool back to back
/// and returns the nanoseconds it took. Each request's service time
/// (closed loop: completion to completion) is appended to `times` when
/// given.
template <class Engine>
std::int64_t serve(Engine& server, const RequestWorkload& pool,
                   std::uint64_t first, std::uint64_t count,
                   std::vector<std::int64_t>* times, Tracer* tracer) {
  std::vector<std::uint8_t> out;
  out.reserve(kOutFlush * kResponseBytes);
  const std::int64_t start = now_ns();
  std::int64_t prev = start;
  for (std::uint64_t i = first; i < first + count; ++i) {
    if (tracer != nullptr) tracer->begin_op(i);
    server.serve(pool.request(i % pool.count()), out);
    if (tracer != nullptr) tracer->end_op();
    const std::int64_t t = now_ns();
    if (times != nullptr) times->push_back(t - prev);
    prev = t;
    if (out.size() >= kOutFlush * kResponseBytes) out.clear();
  }
  return prev - start;
}

/// A built and warmed instance plus what its set-up produced.
template <class Adapter, bool kTimed>
struct Warm {
  std::unique_ptr<Instance<Adapter, kTimed>> inst;
  double setup_s = 0;
  std::uint64_t warm_hash = 0;  ///< response hash after the warm-up
};

template <class Adapter, bool kTimed>
Warm<Adapter, kTimed> set_up(const KvShape& shape, const RequestWorkload& pool,
                             const RuntimeConfig& rc, Tracer* tracer) {
  Warm<Adapter, kTimed> w;
  const std::int64_t t0 = now_ns();
  w.inst = std::make_unique<Instance<Adapter, kTimed>>(shape, rc, tracer);
  serve(w.inst->server, pool, 0, shape.warmup, nullptr, tracer);
  w.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  w.warm_hash = w.inst->server.response_hash();
  return w;
}

/// Engine accounting: every request answered, none malformed.
template <class Engine>
void check_server(const Engine& server, const std::string& phase,
                  Results& out) {
  const ServerStats& st = server.stats();
  if (st.requests != st.responses) {
    out.fail(phase + ": requests without a response",
             st.requests - st.responses);
  }
  if (st.parse_errors != 0) {
    out.fail(phase + ": 400 responses", st.parse_errors);
  }
}

/// The Direct reference: the same engine over DirectSpace.
struct DirectServer {
  explicit DirectServer(const KvShape& shape)
      : types(register_types(registry)),
        space(registry),
        server(space, types, shape.srv) {}

  TypeRegistry registry;
  ServerTypes types;
  DirectSpace space;
  Server<DirectSpace> server;
};

/// The Direct reference's response hash so far; the negative control
/// perturbs every such reference value.
std::uint64_t reference_hash(const DirectServer& d, bool corrupt) {
  return d.server.response_hash() ^ (corrupt ? 1u : 0u);
}

/// Serves rounds of kRound requests, starting at request `first`, on the
/// POLaR and the Direct engine in turn until `seconds` have passed; returns
/// the requests each served.
template <class Engine>
std::uint64_t take_turns(const RequestWorkload& pool, std::uint64_t first,
                         double seconds, Rounds& rounds, Engine& polar,
                         Server<DirectSpace>& direct) {
  std::uint64_t next = first;
  const std::int64_t start = now_ns();
  do {
    serve(polar, pool, next, kRound, &rounds.polar_ns, nullptr);
    serve(direct, pool, next, kRound, &rounds.direct_ns, nullptr);
    rounds.close();
    next += kRound;
  } while (static_cast<double>(now_ns() - start) < seconds * 1e9);
  return next - first;
}

void gated(const Args& a, const KvShape& shape, const RequestWorkload& pool,
           Results& out) {
  Rounds rounds;
  DirectServer direct(shape);
  serve(direct.server, pool, 0, shape.warmup, nullptr, nullptr);
  const std::uint64_t direct_warm = reference_hash(direct,
                                                   a.corrupt_reference);
  const RuntimeConfig rc = runtime_config(a.seed);

  // Every set-up but the last runs in a child process of its own, from the
  // cold allocator; the last runs here and is then timed.
  std::vector<double> setup_s;
  for (int k = 1; k < shape.setups; ++k) {
    setup_s.push_back(cold_setup(
        [&](Results& r) {
          auto w = set_up<SessionSpace, false>(shape, pool, rc, nullptr);
          r.expect_eq("warm-up response hash vs Direct", w.warm_hash,
                      direct_warm);
          check_server(w.inst->server, "set-up", r);
          check_runtime(w.inst->rt, "set-up", r);
          return w.setup_s;
        },
        out));
  }
  const std::uint64_t rss0 = resident_bytes();
  auto w = set_up<SessionSpace, false>(shape, pool, rc, nullptr);
  const double mem_mb = static_cast<double>(resident_bytes() - rss0) / 1e6;
  setup_s.push_back(w.setup_s);
  out.expect_eq("warm-up response hash vs Direct", w.warm_hash, direct_warm);
  const std::uint64_t served = take_turns(pool, shape.warmup, a.seconds,
                                          rounds, w.inst->server,
                                          direct.server);
  out.add_attempted(served);
  out.expect_eq("requests served in the timed phase",
                w.inst->server.stats().requests, shape.warmup + served);
  out.expect_eq("timed response hash vs Direct",
                w.inst->server.response_hash(),
                reference_hash(direct, a.corrupt_reference));
  check_server(w.inst->server, "timed phase", out);
  check_runtime(w.inst->rt, "timed phase", out);

  report_timing(rounds, "requests",
                "rounds of " + std::to_string(kRound) + " requests", out);
  out.metric("mem_mb", mem_mb, "MB",
             "resident growth over the set-up: types, runtime, warmed server");
  report_setup(setup_s, std::to_string(shape.warmup) + "-request warm-up",
               out);
}

void traced(const Args& a, const KvShape& shape, const RequestWorkload& pool,
            Results& out) {
  const RuntimeConfig rc = runtime_config(a.seed);
  Tracer tracer(std::size_t{1} << 19, 64, 1024);
  RuntimeConfig trc = rc;
  trc.alloc_fn = timed_allocate;
  trc.free_fn = timed_deallocate;
  trc.alloc_ctx = &tracer;

  DirectServer direct(shape);
  serve(direct.server, pool, 0, shape.warmup, nullptr, nullptr);
  auto s = set_up<SessionSpace, false>(shape, pool, rc, nullptr);
  auto p = set_up<PolarSpace, false>(shape, pool, rc, nullptr);
  auto t = set_up<SessionSpace, true>(shape, pool, trc, &tracer);
  TracedPhase traced(t.inst->rt, tracer);

  // Turns on the same requests: SessionSpace (the gated path), PolarSpace
  // (no side table), Direct, and SessionSpace traced.
  std::vector<double> session_s;
  std::vector<double> polar_s;
  std::vector<double> direct_s;
  std::vector<double> traced_s;
  std::uint64_t next = shape.warmup;
  auto turn = [&](auto& server, Tracer* tr) {
    return static_cast<double>(
               serve(server, pool, next, kRound, nullptr, tr)) /
           1e9;
  };
  const std::int64_t start = now_ns();
  do {
    session_s.push_back(turn(s.inst->server, nullptr));
    polar_s.push_back(turn(p.inst->server, nullptr));
    direct_s.push_back(turn(direct.server, nullptr));
    traced.begin_turn();
    traced_s.push_back(turn(t.inst->server, &tracer));
    traced.end_turn(kRound);
    next += kRound;
  } while (static_cast<double>(now_ns() - start) < a.seconds * 1e9);
  out.add_attempted(next - shape.warmup);

  const std::uint64_t want = reference_hash(direct, a.corrupt_reference);
  out.expect_eq("SessionSpace response hash vs Direct",
                s.inst->server.response_hash(), want);
  out.expect_eq("PolarSpace response hash vs Direct",
                p.inst->server.response_hash(), want);
  out.expect_eq("traced response hash vs Direct",
                t.inst->server.response_hash(), want);
  check_server(s.inst->server, "SessionSpace turns", out);
  check_runtime(s.inst->rt, "SessionSpace turns", out);
  check_server(p.inst->server, "PolarSpace turns", out);
  check_runtime(p.inst->rt, "PolarSpace turns", out);
  check_server(t.inst->server, "traced turns", out);
  check_runtime(t.inst->rt, "traced turns", out);

  LayerReport layers = traced.report(t.inst->rt);
  const double ns_per_req = 1e9 / static_cast<double>(kRound);
  layers.traced_ns_per_op = median(traced_s) * ns_per_req;
  layers.untraced_ns_per_op = median(session_s) * ns_per_req;
  layers.adapter_ns_per_op =
      (median(session_s) - median(polar_s)) * ns_per_req;
  layers.direct_ns_per_op = median(direct_s) * ns_per_req;
  layers.direct_suite_s = median(direct_s);
  layers.emit(out);

  if (!a.spans_out.empty()) write_spans(tracer, a.spans_out, out);
}

}  // namespace

void run_kv(const Args& a, Results& out) {
  const KvShape shape = shape_for(a.workload, a.seed);
  const RequestWorkload pool = build_workload(shape.wl);
  out.info("info   workload " + a.workload + ": " +
           std::to_string(pool.count()) + " generated requests (" +
           std::to_string(pool.total_bytes()) + " bytes), warm-up " +
           std::to_string(shape.warmup));
  if (a.trace) {
    traced(a, shape, pool, out);
  } else {
    gated(a, shape, pool, out);
  }
}

}  // namespace perfbench
