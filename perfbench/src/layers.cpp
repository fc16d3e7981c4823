#include "layers.h"

#include <fstream>

namespace perfbench {

namespace {

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

TracedPhase::TracedPhase(const polar::Runtime& rt, Tracer& tracer)
    : tracer_(&tracer),
      stats_(rt.stats()),
      locked_(rt.lock_stats().acquisitions) {
  tracer.reset();
}

void TracedPhase::begin_turn() {
  cost_ = measure_span_cost();
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    start_[i] = tracer_->totals(static_cast<Layer>(i));
  }
  heap_start_ = polar::ScalableHeap::process_heap().stats();
}

void TracedPhase::end_turn(std::uint64_t ops) {
  const polar::ScalableHeapStats h = polar::ScalableHeap::process_heap().stats();
  polar::ScalableHeapStats& heap = acc_.heap;
  heap.allocations += h.allocations - heap_start_.allocations;
  heap.reuse_hits += h.reuse_hits - heap_start_.reuse_hits;
  heap.slab_carves += h.slab_carves - heap_start_.slab_carves;
  heap.size_mismatches += h.size_mismatches - heap_start_.size_mismatches;
  heap.live_chunks = h.live_chunks;
  // Only workload.op spans have grandchildren, and their inclusive time is
  // never reported, so one level of correction covers every inclusive
  // time that is.
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const Tracer::Totals& now = tracer_->totals(static_cast<Layer>(i));
    const auto calls = static_cast<double>(now.calls - start_[i].calls);
    const auto children =
        static_cast<double>(now.children - start_[i].children);
    LayerReport::Corrected& c = acc_.layer[i];
    c.calls += now.calls - start_[i].calls;
    c.self_ns += static_cast<double>(now.self_ns - start_[i].self_ns) -
                 calls * cost_.inside - children * cost_.nest;
    c.inclusive_ns += static_cast<double>(now.total_ns - start_[i].total_ns) -
                      calls * cost_.inside -
                      children * (cost_.inside + cost_.nest);
    span_ns_sum_ += calls * (cost_.inside + cost_.nest);
    spans_ += now.calls - start_[i].calls;
  }
  acc_.ops += ops;
}

LayerReport TracedPhase::report(const polar::Runtime& rt) const {
  LayerReport r = acc_;
  r.span_ns = ratio(span_ns_sum_, static_cast<double>(spans_));
  const polar::RuntimeStats now = rt.stats();
  auto& d = r.runtime;
  d.allocations = now.allocations - stats_.allocations;
  d.frees = now.frees - stats_.frees;
  d.clones = now.clones - stats_.clones;
  d.member_accesses = now.member_accesses - stats_.member_accesses;
  d.cache_hits = now.cache_hits - stats_.cache_hits;
  d.fastpath_hits = now.fastpath_hits - stats_.fastpath_hits;
  d.layouts_created = now.layouts_created - stats_.layouts_created;
  d.layouts_deduped = now.layouts_deduped - stats_.layouts_deduped;
  d.layout_pool_refills =
      now.layout_pool_refills - stats_.layout_pool_refills;
  d.uaf_detected = now.uaf_detected - stats_.uaf_detected;
  d.bytes_requested = now.bytes_requested - stats_.bytes_requested;
  d.bytes_allocated = now.bytes_allocated - stats_.bytes_allocated;
  r.locked = rt.lock_stats().acquisitions - locked_;
  r.live_objects = rt.live_objects();
  return r;
}

void LayerReport::emit(Results& out) const {
  const auto n = static_cast<double>(ops);
  auto per_op = [&](double v) { return ratio(v, n); };

  auto layer_of = [&](Layer l) -> const Corrected& {
    return layer[static_cast<std::size_t>(l)];
  };
  auto ns_per_call = [&](Layer l) {
    return ratio(layer_of(l).inclusive_ns,
                 static_cast<double>(layer_of(l).calls));
  };
  out.metric("workload.self_ns_per_op", per_op(layer_of(Layer::kOp).self_ns),
             "ns",
             "op span minus its space-call children, n=" +
                 std::to_string(ops));
  for (std::size_t i = static_cast<std::size_t>(Layer::kAlloc);
       i <= static_cast<std::size_t>(Layer::kPrefetch); ++i) {
    const auto l = static_cast<Layer>(i);
    const std::string name = kLayerName[i];
    out.metric(name + ".calls_per_op",
               per_op(static_cast<double>(layer[i].calls)), "count");
    out.metric(name + ".ns_per_call", ns_per_call(l), "ns",
               "inclusive of alloc.* children");
  }
  out.metric("adapter.ns_per_op", adapter_ns_per_op, "ns",
             "SessionSpace minus PolarSpace, untraced");

  const polar::RuntimeStats& s = runtime;
  const auto accesses = static_cast<double>(s.member_accesses);
  out.metric("runtime.allocs_per_op",
             per_op(static_cast<double>(s.allocations + s.clones)), "count");
  out.metric("runtime.frees_per_op", per_op(static_cast<double>(s.frees)),
             "count");
  out.metric("runtime.accesses_per_op", per_op(accesses), "count");
  out.metric("runtime.fastpath_share",
             ratio(static_cast<double>(s.fastpath_hits), accesses), "1");
  out.metric("runtime.cache_hit_share",
             ratio(static_cast<double>(s.cache_hits), accesses), "1");
  out.metric("runtime.locked_per_op", per_op(static_cast<double>(locked)),
             "count");
  out.metric("runtime.uaf_detected", static_cast<double>(s.uaf_detected),
             "count");
  out.metric("runtime.live_objects", static_cast<double>(live_objects),
             "count", "at the end of the traced turns");

  const auto created = static_cast<double>(s.layouts_created);
  out.metric("layout.created_per_op", per_op(created), "count");
  out.metric("layout.dedup_share",
             ratio(static_cast<double>(s.layouts_deduped),
                   created + static_cast<double>(s.layouts_deduped)),
             "1");
  out.metric("layout.pool_refills_per_op",
             per_op(static_cast<double>(s.layout_pool_refills)), "count");
  out.metric("layout.inflation", s.inflation(), "x");

  out.metric("alloc.allocate_ns", ns_per_call(Layer::kHeapAllocate), "ns");
  out.metric("alloc.deallocate_ns", ns_per_call(Layer::kHeapDeallocate),
             "ns");
  out.metric("alloc.reuse_share",
             ratio(static_cast<double>(heap.reuse_hits),
                   static_cast<double>(heap.allocations)),
             "1");
  out.metric("alloc.slab_carves_per_op",
             per_op(static_cast<double>(heap.slab_carves)), "count");
  out.metric("alloc.live_chunks", static_cast<double>(heap.live_chunks),
             "count");
  out.metric("alloc.size_mismatches",
             static_cast<double>(heap.size_mismatches), "count");
  if (heap.size_mismatches != 0) {
    out.fail("allocator size mismatches", heap.size_mismatches);
  }

  out.metric("trace.overhead_share",
             1.0 - ratio(untraced_ns_per_op, traced_ns_per_op), "1",
             "1 - traced rate / untraced rate");
  out.metric("trace.span_ns", span_ns, "ns",
             "tracer cost per span, taken out of the times above");
  out.metric("direct.req_per_s", ratio(1e9, direct_ns_per_op), "1/s");
  out.metric("direct.suite_s", direct_suite_s, "s",
             "Direct seconds per round, median");
  double explained = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    explained += layer[i].self_ns;
  }
  const double untraced_total = untraced_ns_per_op * n;
  out.metric("unexplained_share",
             ratio(untraced_total - explained, untraced_total), "1",
             "untraced time minus the summed corrected self times");
}

void write_spans(const Tracer& tracer, const std::string& path,
                 Results& out) {
  std::ofstream f(path);
  f << "op,id,parent,name,start_ns,end_ns\n";
  const auto& spans = tracer.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Tracer::SpanRecord& s : spans) {
    f << s.op << ',' << s.id << ',' << s.parent << ','
      << kLayerName[static_cast<std::size_t>(s.layer)] << ','
      << s.start_ns - origin << ',' << s.end_ns - origin << '\n';
  }
  f.flush();
  out.info("info   spans: " + std::to_string(spans.size()) +
           (f ? " written to " + path : " NOT written to " + path));
}

}  // namespace perfbench
