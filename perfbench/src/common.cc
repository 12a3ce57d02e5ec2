#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"throughput", 0.0, "1/s"},
      {"latency_ms.p50", 0.0, "ms"},
      {"latency_ms.tail", 0.0, "ms"},
      {"setup_s", 0.0, "s"},
      {"peak_rss_mb", 0.0, "MB"},
  };
  return kMetrics;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"model.forward_ms", 0.0, "ms"},
      {"model.backward_ms", 0.0, "ms"},
      {"model.optimizer_ms", 0.0, "ms"},
      {"model.loss", 0.0, "nats"},
      {"tensor.gemm_calls", 0.0, "count"},
      {"tensor.gemm_ms", 0.0, "ms"},
      {"tensor.gemm_gflops", 0.0, "GFLOP/s"},
      {"algorithms.buckets", 0.0, "count"},
      {"algorithms.bucket_ms", 0.0, "ms"},
      {"algorithms.self_ms", 0.0, "ms"},
      {"core.self_ms", 0.0, "ms"},
      {"core.span_coverage", 0.0, "ratio"},
      {"transport.sends", 0.0, "count"},
      {"transport.send_bytes", 0.0, "bytes"},
      {"transport.send_ms", 0.0, "ms"},
      {"transport.recvs", 0.0, "count"},
      {"transport.recv_wait_ms", 0.0, "ms"},
      {"transport.pool_misses", 0.0, "count"},
      {"transport.pool_hit_rate", 0.0, "ratio"},
      {"base.arena_misses", 0.0, "count"},
      {"base.arena_peak_mb", 0.0, "MB"},
      {"serve.service_us.p50", 0.0, "us"},
      {"serve.service_us.p99", 0.0, "us"},
      {"serve.cache_hit_rate", 0.0, "ratio"},
      {"serve.batch_size", 0.0, "count"},
      {"fl.round_ms.p50", 0.0, "ms"},
      {"fl.round_ms.p90", 0.0, "ms"},
      {"fl.local_ms", 0.0, "ms"},
      {"fl.updates", 0.0, "count"},
      {"fl.dropout_ratio", 0.0, "ratio"},
      {"trace.overhead", 0.0, "ratio"},
  };
  return kMetrics;
}

RunResult EmptyResult(bool trace) {
  RunResult r;
  r.metrics = trace ? PerLayerMetrics() : EndToEndMetrics();
  return r;
}

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void RunResult::Set(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

namespace {

// Shortest round-trip rendering, so a value keeps all its digits.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void PrintResult(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Calls fn(begin, end) for each of max(1, n / per_window) equal windows.
template <typename Fn>
std::vector<double> PerWindow(size_t n, size_t per_window, Fn fn) {
  const size_t windows = std::max<size_t>(1, n / per_window);
  std::vector<double> out;
  for (size_t w = 0; w < windows; ++w) {
    out.push_back(fn(w * n / windows, (w + 1) * n / windows));
  }
  return out;
}

}  // namespace

double WindowedQuantile(const std::vector<double>& values, size_t per_window,
                        double q) {
  return Median(PerWindow(values.size(), per_window, [&](size_t b, size_t e) {
    return Quantile(
        std::vector<double>(values.begin() + b, values.begin() + e), q);
  }));
}

double WindowedRate(const std::vector<double>& unit_s, size_t per_window,
                    double work_per_unit) {
  return Median(PerWindow(unit_s.size(), per_window, [&](size_t b, size_t e) {
    double wall = 0.0;
    for (size_t i = b; i < e; ++i) wall += unit_s[i];
    return static_cast<double>(e - b) * work_per_unit / wall;
  }));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void FlipLowBit(float* value) {
  uint32_t bits = 0;
  std::memcpy(&bits, value, sizeof(bits));
  bits ^= 1u;
  std::memcpy(value, &bits, sizeof(bits));
}

}  // namespace perfbench
