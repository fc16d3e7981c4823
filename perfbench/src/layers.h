// The per-layer ledger of a traced run: span totals from the Tracer plus
// counter deltas from the runtime (Runtime::stats, lock_stats) and the
// process-wide ScalableHeap, each taken over the traced phase only.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "alloc/scalable_heap.h"
#include "bench.h"
#include "core/runtime.h"
#include "trace.h"

namespace perfbench {

struct LayerReport {
  /// A layer's span times over the traced turns, with the tracer's own
  /// cost taken out: each span adds Tracer::Cost::inside to its duration
  /// and Tracer::Cost::nest to its parent's self time.
  struct Corrected {
    std::uint64_t calls = 0;
    double self_ns = 0;
    double inclusive_ns = 0;
  };

  std::uint64_t ops = 0;
  std::array<Corrected, kLayerCount> layer{};
  double span_ns = 0;           ///< mean tracer cost per span
  polar::RuntimeStats runtime;  ///< delta over the traced turns
  std::uint64_t locked = 0;     ///< shard-lock acquisitions (delta)
  std::size_t live_objects = 0;
  polar::ScalableHeapStats heap;  ///< delta, except the live_chunks gauge

  // Filled in by the workload: medians over its turns.
  double traced_ns_per_op = 0;
  double untraced_ns_per_op = 0;
  double adapter_ns_per_op = 0;
  double direct_ns_per_op = 0;
  double direct_suite_s = 0;

  /// Emits every per-layer metric; a size mismatch in the heap is a
  /// correctness failure.
  void emit(Results& out) const;
};

/// The traced instance's share of a run in which it takes turns with
/// untraced ones. Each traced turn is bracketed by begin_turn() and
/// end_turn(): the tracer's cost is measured afresh for every turn (host
/// contention changes it over a run), and the process-wide heap counters
/// count the traced instance's turns only.
class TracedPhase {
 public:
  TracedPhase(const polar::Runtime& rt, Tracer& tracer);

  void begin_turn();
  void end_turn(std::uint64_t ops);

  [[nodiscard]] LayerReport report(const polar::Runtime& rt) const;

 private:
  Tracer* tracer_;
  polar::RuntimeStats stats_;
  std::uint64_t locked_ = 0;
  LayerReport acc_;  ///< corrected layer times, heap delta, ops
  double span_ns_sum_ = 0;
  std::uint64_t spans_ = 0;
  // State at the start of the open turn.
  Tracer::Cost cost_;
  std::array<Tracer::Totals, kLayerCount> start_{};
  polar::ScalableHeapStats heap_start_;
};

/// Writes the tracer's kept spans to `path` and reports where they went.
void write_spans(const Tracer& tracer, const std::string& path, Results& out);

}  // namespace perfbench
