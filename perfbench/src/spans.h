#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The layer boundaries the decorators (decorators.h) and the benchmark's
/// own loops record.
enum class SpanKind : uint8_t {
  kStep,       ///< BaguaRuntime::TrainStepCE, around the call
  kForward,    ///< Layer::Forward of one wrapped model layer
  kBackward,   ///< Layer::Backward of one wrapped model layer
  kBucket,     ///< Algorithm::OnBucketReady
  kStepEnd,    ///< Algorithm::OnStepEnd
  kOptimizer,  ///< Optimizer::Step
  kSend,       ///< TransportGroup::Send / SendBuffer
  kRecv,       ///< TransportGroup::Recv / RecvWithDeadline / TryRecvAny
};
constexpr int kNumSpanKinds = 8;
const char* SpanKindName(SpanKind kind);

/// One recorded interval. `parent` indexes the innermost span that was open
/// on the same thread when this one began (-1: none).
struct Span {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t unit = -1;  ///< step, batch or replay id; -1 during set-up
  uint32_t bytes = 0;
  SpanKind kind = SpanKind::kStep;
};

/// The spans of one thread, in begin order.
struct ThreadLog {
  int rank = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;
};

/// In-memory span store. Each recording thread appends to its own log
/// without locking; the logs are read after the threads have joined.
class SpanRecorder {
 public:
  /// Routes the calling thread's spans to a new log for `rank`.
  void Attach(int rank);
  /// Stops recording on the calling thread.
  static void Detach();
  /// Tags the calling thread's following spans with `unit`.
  static void SetUnit(int32_t unit);

  const std::vector<std::unique_ptr<ThreadLog>>& logs() const { return logs_; }

  /// Writes every span as one tab-separated line: rank, thread, index,
  /// parent, layer, unit, begin_ns (from the earliest span), dur_ns, bytes.
  /// Returns false on I/O failure.
  bool WriteTsv(const std::string& path) const;

 private:
  std::mutex mu_;  // guards logs_ while threads attach
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

int64_t NowNs();

/// RAII span on the calling thread's log; a no-op on a detached thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t bytes = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadLog* log_;
  int32_t index_ = -1;
};

/// Per-layer sums over the spans of timed units (unit >= 0). Self time is a
/// span's duration minus the durations of its direct children.
struct LayerTotals {
  double total_ms[kNumSpanKinds] = {};
  double self_ms[kNumSpanKinds] = {};
  uint64_t count[kNumSpanKinds] = {};
  uint64_t bytes[kNumSpanKinds] = {};

  double total(SpanKind l) const { return total_ms[static_cast<int>(l)]; }
  double self(SpanKind l) const { return self_ms[static_cast<int>(l)]; }
  uint64_t calls(SpanKind l) const { return count[static_cast<int>(l)]; }
  uint64_t payload(SpanKind l) const { return bytes[static_cast<int>(l)]; }
};
LayerTotals Aggregate(const SpanRecorder& recorder);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
