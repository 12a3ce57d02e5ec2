#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>

namespace perfbench {

namespace {

thread_local ThreadLog* tls_log = nullptr;
thread_local int32_t tls_unit = -1;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStep:
      return "core.step";
    case SpanKind::kForward:
      return "model.forward";
    case SpanKind::kBackward:
      return "model.backward";
    case SpanKind::kBucket:
      return "algorithms.bucket";
    case SpanKind::kStepEnd:
      return "algorithms.step_end";
    case SpanKind::kOptimizer:
      return "model.optimizer";
    case SpanKind::kSend:
      return "transport.send";
    case SpanKind::kRecv:
      return "transport.recv";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Attach(int rank) {
  auto log = std::make_unique<ThreadLog>();
  log->rank = rank;
  tls_log = log.get();
  tls_unit = -1;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::move(log));
}

void SpanRecorder::Detach() {
  tls_log = nullptr;
  tls_unit = -1;
}

void SpanRecorder::SetUnit(int32_t unit) { tls_unit = unit; }

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t epoch = INT64_MAX;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) epoch = std::min(epoch, s.begin_ns);
  }
  std::fprintf(f, "rank\tthread\tindex\tparent\tlayer\tunit\tbegin_ns"
                  "\tdur_ns\tbytes\n");
  for (size_t t = 0; t < logs_.size(); ++t) {
    const ThreadLog& log = *logs_[t];
    for (size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      std::fprintf(f, "%d\t%zu\t%zu\t%d\t%s\t%d\t%lld\t%lld\t%u\n", log.rank,
                   t, i, s.parent, SpanKindName(s.kind), s.unit,
                   static_cast<long long>(s.begin_ns - epoch),
                   static_cast<long long>(s.end_ns - s.begin_ns), s.bytes);
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t bytes) : log_(tls_log) {
  if (log_ == nullptr) return;
  Span s;
  s.parent = log_->open.empty() ? -1 : log_->open.back();
  s.unit = tls_unit;
  s.bytes = static_cast<uint32_t>(bytes);
  s.kind = kind;
  index_ = static_cast<int32_t>(log_->spans.size());
  log_->open.push_back(index_);
  s.begin_ns = NowNs();
  log_->spans.push_back(s);
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->spans[index_].end_ns = NowNs();
  log_->open.pop_back();
}

LayerTotals Aggregate(const SpanRecorder& recorder) {
  LayerTotals t;
  std::vector<int64_t> child_ns;
  for (const auto& log : recorder.logs()) {
    const std::vector<Span>& spans = log->spans;
    child_ns.assign(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.begin_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.unit < 0) continue;
      const int l = static_cast<int>(s.kind);
      const int64_t dur = s.end_ns - s.begin_ns;
      t.total_ms[l] += dur * 1e-6;
      t.self_ms[l] += (dur - child_ns[i]) * 1e-6;
      t.count[l] += 1;
      t.bytes[l] += s.bytes;
    }
  }
  return t;
}

}  // namespace perfbench
