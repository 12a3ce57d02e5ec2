// perfbench: wall-clock benchmark of the library's training, serving and
// federated workloads. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH] [--corrupt CHECK]
//
// Prints diagnostics to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train-allreduce|train-qsgd8|serve-dlrm|fl-fedavg --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH] "
               "[--corrupt CHECK]\n",
               why);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("bad --seed");
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n < 1 || n > 600) {
        return Usage("bad --seconds");
      }
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  perfbench::RunResult result;
  if (args.workload == "train-allreduce") {
    result = perfbench::RunTrain(args, /*qsgd=*/false);
  } else if (args.workload == "train-qsgd8") {
    result = perfbench::RunTrain(args, /*qsgd=*/true);
  } else if (args.workload == "serve-dlrm") {
    result = perfbench::RunServe(args);
  } else if (args.workload == "fl-fedavg") {
    result = perfbench::RunFl(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (result.attempted == 0) {
    result.Check(false, "no operation was attempted");
  }
  perfbench::PrintResult(result);
  return 0;
}
