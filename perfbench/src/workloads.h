#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"
#include "spans.h"

namespace perfbench {

/// Each entry point runs one workload for `args.seconds` and returns its
/// metrics: the end-to-end set when `args.trace` is off, else the
/// per-layer set from untraced and traced passes over the same work.
RunResult RunTrain(const Args& args, bool qsgd);
RunResult RunServe(const Args& args);
RunResult RunFl(const Args& args);

/// Number of times set-up is repeated in an untraced run; setup_s is the
/// median.
constexpr int kSetupRepeats = 5;

/// Read-only process-wide state: KernelMetrics() GEMM counters and the
/// arenas of MemoryRegistry::Global().
struct ProcessCounters {
  uint64_t gemm_calls = 0;
  uint64_t gemm_ns = 0;
  uint64_t gemm_flops = 0;
  uint64_t arena_misses = 0;
  uint64_t arena_peak_bytes = 0;  ///< summed over arenas

  static ProcessCounters Sample();
  /// Adds the counters that moved from `before` to `after`; the peak is
  /// taken from `after`.
  void AddDelta(const ProcessCounters& before, const ProcessCounters& after);
};

/// Transport buffer-pool accounting over the traced work.
struct PoolCount {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t steady_misses = 0;  ///< misses after the work's own warm-up
};

/// Sets the tensor.*, transport.* and base.* per-layer metrics shared by
/// every workload. Span-derived values and GEMM counters are per unit
/// (`units` = ranks x steps, batches or rounds); steady-state pool misses
/// and arena misses are counts over the traced work.
void SetCommonLayerMetrics(const LayerTotals& spans,
                           const ProcessCounters& moved, const PoolCount& pool,
                           double units, RunResult* result);

/// Writes the recorder's spans to args.spans_out, when one is given.
void WriteSpans(const Args& args, const SpanRecorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
