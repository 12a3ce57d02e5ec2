#include "workloads.h"

#include <cstdio>
#include <string>

#include "base/arena.h"
#include "trace/metrics.h"

namespace perfbench {

ProcessCounters ProcessCounters::Sample() {
  ProcessCounters c;
  const bagua::MetricsRegistry& k = bagua::KernelMetrics();
  for (const char* name : {"gemm", "gemm_ta", "gemm_tb"}) {
    const std::string base = std::string("kernel.") + name;
    c.gemm_calls += k.Counter(base + ".calls");
    c.gemm_ns += k.Counter(base + ".ns");
    c.gemm_flops += k.Counter(base + ".flops");
  }
  for (const bagua::ArenaSnapshot& a :
       bagua::MemoryRegistry::Global().Snapshot()) {
    c.arena_misses += a.stats.misses;
    c.arena_peak_bytes += a.stats.peak_bytes;
  }
  return c;
}

void ProcessCounters::AddDelta(const ProcessCounters& before,
                               const ProcessCounters& after) {
  gemm_calls += after.gemm_calls - before.gemm_calls;
  gemm_ns += after.gemm_ns - before.gemm_ns;
  gemm_flops += after.gemm_flops - before.gemm_flops;
  arena_misses += after.arena_misses - before.arena_misses;
  arena_peak_bytes = after.arena_peak_bytes;
}

void SetCommonLayerMetrics(const LayerTotals& spans,
                           const ProcessCounters& moved, const PoolCount& pool,
                           double units, RunResult* result) {
  const double gemm_ns = static_cast<double>(moved.gemm_ns);
  result->Set("tensor.gemm_calls",
              static_cast<double>(moved.gemm_calls) / units);
  result->Set("tensor.gemm_ms", gemm_ns * 1e-6 / units);
  // flops per nanosecond is GFLOP/s.
  result->Set("tensor.gemm_gflops",
              gemm_ns > 0.0 ? static_cast<double>(moved.gemm_flops) / gemm_ns
                            : 0.0);
  result->Set("transport.sends",
              static_cast<double>(spans.calls(SpanKind::kSend)) / units);
  result->Set("transport.send_bytes",
              static_cast<double>(spans.payload(SpanKind::kSend)) / units);
  result->Set("transport.send_ms", spans.total(SpanKind::kSend) / units);
  result->Set("transport.recvs",
              static_cast<double>(spans.calls(SpanKind::kRecv)) / units);
  result->Set("transport.recv_wait_ms", spans.total(SpanKind::kRecv) / units);
  result->Set("transport.pool_misses",
              static_cast<double>(pool.steady_misses));
  const uint64_t acquires = pool.hits + pool.misses;
  result->Set("transport.pool_hit_rate",
              acquires > 0 ? static_cast<double>(pool.hits) / acquires : 0.0);
  result->Set("base.arena_misses", static_cast<double>(moved.arena_misses));
  result->Set("base.arena_peak_mb",
              static_cast<double>(moved.arena_peak_bytes) / (1 << 20));
}

void WriteSpans(const Args& args, const SpanRecorder& recorder) {
  if (args.spans_out.empty()) return;
  if (!recorder.WriteTsv(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
  }
}

}  // namespace perfbench
