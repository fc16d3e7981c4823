// Traced-run instrumentation, kept in the benchmark's own files: spans
// around the calls a workload makes into each layer, with per-layer call
// counts and self times.
//
//   workload.op        one serve() call or one SPEC mini run
//   space.*            every ObjectSpace call, through TimedSpace below
//   alloc.*            every substrate allocate/deallocate, through the
//                      RuntimeConfig::alloc_fn/free_fn hooks below, which
//                      call the same process-wide ScalableHeap the runtime
//                      uses when no hook is installed
//
// A span's self time is its duration minus the time its child spans cover.
// The tracer's own cost per span is measured during the run and taken out
// of every reported time (layers.h).
// Spans of sampled operations are kept in memory (name, start, end, parent,
// operation id) and written out when the run ends. Gated runs never
// construct a Tracer.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "alloc/scalable_heap.h"
#include "bench.h"
#include "core/space.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kOp,
  kAlloc,
  kFree,
  kField,
  kCursor,
  kCopy,
  kClone,
  kPrefetch,
  kHeapAllocate,
  kHeapDeallocate,
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Span and metric names, indexed by Layer.
inline constexpr std::array<const char*, kLayerCount> kLayerName = {
    "workload.op",  "space.alloc",  "space.free",     "space.field",
    "space.cursor", "space.copy",   "space.clone",    "space.prefetch",
    "alloc.allocate", "alloc.deallocate"};

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t children = 0;  ///< direct child spans of these spans
    std::int64_t total_ns = 0;   ///< summed span durations
    std::int64_t self_ns = 0;    ///< minus time covered by child spans
  };

  /// What one span adds to the measured times: `inside` to its own
  /// duration, `nest` to its parent's self time. Measured on empty spans.
  struct Cost {
    double inside = 0;
    double nest = 0;
  };
  struct SpanRecord {
    std::uint64_t op;
    std::uint32_t id;      ///< unique within its operation, from 1
    std::uint32_t parent;  ///< 0 = a root span
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  /// Keeps the spans of every `keep_every`-th operation: the operation's
  /// own span and at most `per_op` of its descendants, up to `budget`
  /// spans in total.
  Tracer(std::size_t budget, std::uint64_t keep_every, std::uint32_t per_op)
      : budget_(budget), keep_every_(keep_every), per_op_(per_op) {
    spans_.reserve(budget);
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin_op(std::uint64_t op) {
    op_ = op;
    next_id_ = 0;
    keep_ = op % keep_every_ == 0;
    begin(Layer::kOp);
  }
  void end_op() {
    end();
    keep_ = false;  // teardown after the last op is not part of any op
  }

  void begin(Layer layer) {
    if (depth_ == stack_.size()) {
      std::fprintf(stderr, "perfbench: span stack overflow\n");
      std::abort();
    }
    stack_[depth_++] = Open{layer, ++next_id_, now_ns(), 0, 0};
  }

  void end() {
    const std::int64_t end = now_ns();
    const Open o = stack_[--depth_];
    const std::int64_t dur = end - o.start;
    Totals& t = totals_[static_cast<std::size_t>(o.layer)];
    ++t.calls;
    t.children += o.children;
    t.total_ns += dur;
    t.self_ns += dur - o.child_ns;
    const std::uint32_t parent = depth_ == 0 ? 0 : stack_[depth_ - 1].id;
    if (depth_ != 0) {
      stack_[depth_ - 1].child_ns += dur;
      ++stack_[depth_ - 1].children;
    }
    if (keep_ && spans_.size() < budget_ &&
        (depth_ == 0 || o.id <= per_op_)) {
      spans_.push_back({op_, o.id, parent, o.layer, o.start, end});
    }
  }

  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const {
    return spans_;
  }

  /// Drops the totals and kept spans gathered so far (the warm-up's).
  void reset() {
    totals_ = {};
    spans_.clear();
  }

 private:
  struct Open {
    Layer layer;
    std::uint32_t id;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint64_t children;
  };
  std::array<Open, 8> stack_{};
  std::size_t depth_ = 0;
  std::array<Totals, kLayerCount> totals_{};
  std::uint64_t op_ = 0;
  std::uint32_t next_id_ = 0;
  bool keep_ = false;
  std::size_t budget_;
  std::uint64_t keep_every_;
  std::uint32_t per_op_;
  std::vector<SpanRecord> spans_;
};

/// Measures Tracer::Cost on spans around a short dependent computation,
/// which the CPU cannot overlap with the clock reads as it could for empty
/// spans; the median of a few rounds. Takes about half a millisecond.
inline Tracer::Cost measure_span_cost() {
  constexpr int kRounds = 5;
  constexpr int kSpans = 1024;
  auto work = [](std::uint64_t x) {
    for (int i = 0; i < 16; ++i) x = x * 6364136223846793005ULL + 1;
    return x;
  };
  volatile std::uint64_t sink = 1;
  std::array<double, kRounds> inside{};
  std::array<double, kRounds> nest{};
  for (int r = 0; r < kRounds; ++r) {
    std::uint64_t x = sink;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i) x = work(x);
    const double plain = static_cast<double>(now_ns() - t0) / kSpans;
    Tracer t(0, 1, 0);
    t.begin(Layer::kOp);
    for (int i = 0; i < kSpans; ++i) {
      t.begin(Layer::kField);
      x = work(x);
      t.end();
    }
    t.end();
    sink = x;
    const auto n = static_cast<double>(kSpans);
    inside[r] =
        static_cast<double>(t.totals(Layer::kField).total_ns) / n - plain;
    nest[r] = static_cast<double>(t.totals(Layer::kOp).self_ns) / n;
  }
  std::sort(inside.begin(), inside.end());
  std::sort(nest.begin(), nest.end());
  return {inside[kRounds / 2], nest[kRounds / 2]};
}

/// Opens a span for its lifetime.
class [[nodiscard]] Span {
 public:
  Span(Tracer& t, Layer layer) : t_(&t) { t.begin(layer); }
  ~Span() { t_->end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// RuntimeConfig::alloc_fn/free_fn hooks timing the process-wide
/// ScalableHeap; `ctx` is the Tracer. Memory and behaviour are those of a
/// runtime without hooks, which calls the same heap with the same sizes.
inline void* timed_allocate(std::size_t size, void* ctx) {
  const Span s(*static_cast<Tracer*>(ctx), Layer::kHeapAllocate);
  return polar::ScalableHeap::process_heap().allocate(size);
}
inline void timed_deallocate(void* p, std::size_t size, void* ctx) {
  const Span s(*static_cast<Tracer*>(ctx), Layer::kHeapDeallocate);
  polar::ScalableHeap::process_heap().deallocate(p, size);
}

/// Timing decorator over an ObjectSpace (core/space.h): forwards every
/// call to the wrapped space inside a span of that call's layer. Cursors
/// are wrapped too, so batched accesses are charged to space.cursor (one
/// span for the snapshot and one per access) instead of to the workload.
template <polar::ObjectSpace S>
class TimedSpace {
 public:
  TimedSpace(S& inner, Tracer& tracer) : inner_(&inner), t_(&tracer) {}

  static constexpr bool kRandomized = S::kRandomized;

  void* alloc(polar::TypeId type) {
    const Span s(*t_, Layer::kAlloc);
    return inner_->alloc(type);
  }
  void free_object(void* base, polar::TypeId type) {
    const Span s(*t_, Layer::kFree);
    inner_->free_object(base, type);
  }
  [[nodiscard]] void* field_ptr(void* base, polar::TypeId type,
                                std::uint32_t field) {
    const Span s(*t_, Layer::kField);
    return inner_->field_ptr(base, type, field);
  }
  template <class T>
  [[nodiscard]] T load(void* base, polar::TypeId type, std::uint32_t field) {
    const Span s(*t_, Layer::kField);
    return inner_->template load<T>(base, type, field);
  }
  template <class T>
  void store(void* base, polar::TypeId type, std::uint32_t field,
             const T& v) {
    const Span s(*t_, Layer::kField);
    inner_->store(base, type, field, v);
  }
  /// A single-object metadata lookup, so it is charged to space.field.
  [[nodiscard]] std::size_t object_bytes(const void* base,
                                         polar::TypeId type) {
    const Span s(*t_, Layer::kField);
    return inner_->object_bytes(base, type);
  }
  void copy_object(void* dst, const void* src, polar::TypeId type) {
    const Span s(*t_, Layer::kCopy);
    inner_->copy_object(dst, src, type);
  }
  void* clone_object(const void* src, polar::TypeId type) {
    const Span s(*t_, Layer::kClone);
    return inner_->clone_object(src, type);
  }
  [[nodiscard]] const polar::TypeRegistry& registry() const {
    return inner_->registry();
  }

  using Inner = decltype(polar::make_cursor(std::declval<S&>(), nullptr,
                                            polar::TypeId{}));

  class Cursor {
   public:
    Cursor(Tracer& t, S& inner, void* base, polar::TypeId type)
        : t_(&t), c_(snapshot(t, inner, base, type)) {}

    [[nodiscard]] void* field(std::uint32_t f) {
      const Span s(*t_, Layer::kCursor);
      return c_.field(f);
    }
    template <class T>
    [[nodiscard]] T load(std::uint32_t f) {
      const Span s(*t_, Layer::kCursor);
      return c_.template load<T>(f);
    }
    template <class T>
    void store(std::uint32_t f, const T& v) {
      const Span s(*t_, Layer::kCursor);
      c_.store(f, v);
    }

   private:
    static Inner snapshot(Tracer& t, S& inner, void* base,
                          polar::TypeId type) {
      const Span s(t, Layer::kCursor);
      return polar::make_cursor(inner, base, type);
    }
    Tracer* t_;
    Inner c_;
  };

  [[nodiscard]] Cursor cursor(void* base, polar::TypeId type) {
    return Cursor(*t_, *inner_, base, type);
  }

  void prefetch(const void* base) {
    const Span s(*t_, Layer::kPrefetch);
    polar::space_prefetch(*inner_, base);
  }

 private:
  S* inner_;
  Tracer* t_;
};

}  // namespace perfbench
