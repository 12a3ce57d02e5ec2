#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run (see README.md).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans at exit (empty: not written).
  std::string spans_out;
  /// Test hook: names one output to corrupt before its correctness check,
  /// so the benchmark's own tests can show that check trips.
  std::string corrupt;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records a correctness check: a failed check fails the run and counts
  /// as one failed operation. Checks are never retried.
  void Check(bool ok, const std::string& what);
  /// Sets `name` (which must be a declared metric) to `value`.
  void Set(const std::string& name, double value);
};

/// The end-to-end metrics (untraced run) and per-layer metrics (traced run),
/// with their units, in the order BENCHMARK.json declares them.
const std::vector<Metric>& EndToEndMetrics();
const std::vector<Metric>& PerLayerMetrics();

/// A result whose metrics are the run mode's declared set, all zero.
RunResult EmptyResult(bool trace);

/// Prints `result` as one JSON object on one line to stdout.
void PrintResult(const RunResult& result);

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// q-quantile (q in [0, 1]) by linear interpolation; 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Statistics over consecutive windows of about `per_window` units, in
/// time order, summarised by their median. Co-tenants of a shared host slow
/// it in bursts; a median over windows keeps a burst to the windows it hit.
/// Each window's q-quantile of `values`:
double WindowedQuantile(const std::vector<double>& values, size_t per_window,
                        double q);
/// Each window's units x work_per_unit / summed unit_s:
double WindowedRate(const std::vector<double>& unit_s, size_t per_window,
                    double work_per_unit);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// True when `args.corrupt` names `what`.
inline bool Corrupt(const Args& args, const char* what) {
  return args.corrupt == what;
}

/// Flips the lowest mantissa bit of `*value`.
void FlipLowBit(float* value);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
