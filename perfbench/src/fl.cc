// fl-fedavg: federated rounds through RunFlTraining, three client threads
// plus the server thread.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "fl/federated.h"
#include "fl/sampling.h"
#include "trace/trace.h"
#include "workloads.h"

namespace perfbench {

using bagua::Status;

namespace {

constexpr int kClients = 1024;
constexpr uint64_t kRoundsPerCall = 16;

bagua::FlConfig MakeConfig(uint64_t seed, uint64_t rounds) {
  bagua::FlConfig cfg;
  cfg.num_clients = kClients;
  cfg.participation = 0.25;
  cfg.rounds = rounds;
  cfg.dropout = 0.05;
  cfg.client.aggregation = bagua::FlAggregation::kFedAvg;
  cfg.client.local_steps = 4;
  cfg.client.batch_size = 16;
  cfg.threads = 3;
  cfg.flow_window = 32;
  cfg.seed = seed;
  return cfg;
}

struct FlCall {
  Status status;
  bagua::FlReport report;
  double wall_s = 0.0;
};

FlCall RunCall(const bagua::FlConfig& cfg) {
  FlCall call;
  const double t0 = NowSeconds();
  call.status = bagua::RunFlTraining(cfg, &call.report);
  call.wall_s = NowSeconds() - t0;
  return call;
}

/// Per-call correctness: the call succeeded, every cohort slot is
/// accounted for, the dropouts are exactly the seeded crash plan's, the
/// loss is finite, and the committed model repeats the first call's.
void CheckCall(const Args& args, const bagua::FlConfig& cfg, FlCall* call,
               uint64_t first_hash, RunResult* result) {
  const uint64_t cohort = static_cast<uint64_t>(
      bagua::CohortSize(cfg.num_clients, cfg.participation));
  result->attempted += cfg.rounds * cohort;
  if (!call->status.ok()) {
    result->failed += cfg.rounds * cohort;
    result->correct = false;
    std::fprintf(stderr, "perfbench: fl call failed: %s\n",
                 call->status.ToString().c_str());
    return;
  }
  bagua::FlReport& rep = call->report;
  if (Corrupt(args, "fl.accounting")) ++rep.rounds[0].participants;
  uint64_t slots = 0;
  for (const bagua::FlRoundStats& r : rep.rounds) {
    slots += static_cast<uint64_t>(r.participants + r.dropouts + r.skipped);
  }
  result->Check(rep.rounds.size() == cfg.rounds && slots == cfg.rounds * cohort,
                "participants + dropouts + skipped != rounds x cohort");
  if (Corrupt(args, "fl.dropouts")) ++rep.total_dropouts;
  uint64_t crashes = 0;
  for (const bagua::FaultRule& rule : bagua::BuildFlDropoutPlan(cfg).rules) {
    if (rule.kind == bagua::FaultKind::kCrash) ++crashes;
  }
  result->Check(rep.total_dropouts == crashes,
                "dropouts differ from the seeded crash plan");
  result->Check(std::isfinite(rep.rounds.back().mean_loss),
                "final round loss is not finite");
  result->Check(rep.model_hash == first_hash,
                "calls of one config committed different models");
}

struct CallSeries {
  std::vector<FlCall> calls;

  /// Runs one call and checks it against the series' first call.
  void Run(const Args& args, const bagua::FlConfig& cfg, RunResult* result) {
    calls.push_back(RunCall(cfg));
    CheckCall(args, cfg, &calls.back(), calls[0].report.model_hash, result);
  }
};

double TotalWall(const CallSeries& s) {
  double total = 0.0;
  for (const FlCall& c : s.calls) total += c.wall_s;
  return total;
}

/// Writes the FL tracer's spans: rank, name, begin/end microseconds, bytes.
bool WriteEvents(const bagua::Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "rank\tname\tbegin_us\tend_us\tbytes\n");
  for (int r = 0; r < tracer.world_size(); ++r) {
    for (const bagua::TraceEvent& ev : tracer.Events(r)) {
      std::fprintf(f, "%d\t%s\t%.3f\t%.3f\t%llu\n", r, ev.name.c_str(),
                   ev.wall_begin_us, ev.wall_end_us,
                   static_cast<unsigned long long>(ev.bytes));
    }
  }
  return std::fclose(f) == 0;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

RunResult RunFl(const Args& args) {
  bagua::SetIntraOpThreads(1);
  RunResult result = EmptyResult(args.trace);
  const bagua::FlConfig cfg = MakeConfig(args.seed, kRoundsPerCall);
  const double budget = static_cast<double>(args.seconds);

  if (!args.trace) {
    // RunFlTraining builds its data, shards, transport and server inside
    // the call, so set-up is the wall time of a one-round call.
    const bagua::FlConfig one = MakeConfig(args.seed, 1);
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      FlCall call = RunCall(one);
      CheckCall(args, one, &call, call.report.model_hash, &result);
      setup_s.push_back(call.wall_s);
    }
    const double setup = Median(setup_s);
    CallSeries series;
    const double t0 = NowSeconds();
    while (result.correct &&
           (series.calls.empty() || NowSeconds() - t0 < budget)) {
      series.Run(args, cfg, &result);
    }
    if (!result.correct) return result;
    // Each call's rounds after the first cost its wall minus set-up.
    std::vector<double> round_ms;
    double rounds_wall = 0.0;
    for (const FlCall& c : series.calls) {
      rounds_wall += c.wall_s - setup;
      round_ms.push_back((c.wall_s - setup) * 1e3 / (kRoundsPerCall - 1));
    }
    result.Set("throughput",
               static_cast<double>(series.calls.size() * (kRoundsPerCall - 1)) /
                   rounds_wall);
    result.Set("latency_ms.p50", Quantile(round_ms, 0.5));
    result.Set("latency_ms.tail", Quantile(round_ms, 0.9));
    result.Set("setup_s", setup);
    result.Set("peak_rss_mb", PeakRssMb());
    return result;
  }

  // FL has no injection point: its own fl.round / fl.local spans, recorded
  // by a tracer installed for the traced calls only, stand in for the
  // decorators. Untraced and traced calls alternate, so drift in machine
  // speed hits both alike.
  bagua::Tracer tracer(kClients + 1);
  ProcessCounters moved;
  CallSeries untraced, traced;
  const double t0 = NowSeconds();
  while (result.correct &&
         (traced.calls.empty() || NowSeconds() - t0 < budget)) {
    untraced.Run(args, cfg, &result);
    const ProcessCounters before = ProcessCounters::Sample();
    bagua::InstallGlobalTracer(&tracer);
    traced.Run(args, cfg, &result);
    bagua::UninstallGlobalTracer();
    moved.AddDelta(before, ProcessCounters::Sample());
  }
  if (!result.correct) return result;
  uint64_t traced_hash = traced.calls[0].report.model_hash;
  if (Corrupt(args, "traced")) traced_hash ^= 1;
  result.Check(traced_hash == untraced.calls[0].report.model_hash,
               "traced model differs from untraced");

  const double rounds =
      static_cast<double>(traced.calls.size() * kRoundsPerCall);
  std::vector<double> round_ms;
  double local_ms = 0.0;
  for (int r = 0; r < tracer.world_size(); ++r) {
    for (const bagua::TraceEvent& ev : tracer.Events(r)) {
      const double ms = (ev.wall_end_us - ev.wall_begin_us) * 1e-3;
      if (r == 0 && StartsWith(ev.name, "fl.round[")) round_ms.push_back(ms);
      if (r > 0 && StartsWith(ev.name, "fl.local[")) local_ms += ms;
    }
  }
  uint64_t updates = 0, dropouts = 0, cohort = 0, bytes = 0;
  PoolCount pool;
  for (const FlCall& c : traced.calls) {
    for (const bagua::FlRoundStats& r : c.report.rounds) {
      updates += r.participants;
      dropouts += r.dropouts;
      cohort += r.cohort;
    }
    bytes += c.report.bytes_sent;
    pool.hits += c.report.pool.hits;
    pool.misses += c.report.pool.misses;
    pool.steady_misses += c.report.pool_misses_steady;
  }
  // No transport decorator here, so only the report's byte count is known.
  SetCommonLayerMetrics(LayerTotals(), moved, pool, rounds, &result);
  result.Set("transport.send_bytes", static_cast<double>(bytes) / rounds);
  result.Set("model.loss", traced.calls[0].report.rounds.back().mean_loss);
  result.Set("fl.round_ms.p50", Quantile(round_ms, 0.5));
  result.Set("fl.round_ms.p90", Quantile(round_ms, 0.9));
  result.Set("fl.local_ms", local_ms / rounds);
  result.Set("fl.updates", static_cast<double>(updates) / rounds);
  result.Set("fl.dropout_ratio",
             cohort > 0 ? static_cast<double>(dropouts) / cohort : 0.0);
  result.Set("trace.overhead", TotalWall(untraced) / TotalWall(traced));
  if (!args.spans_out.empty() && !WriteEvents(tracer, args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
  }
  return result;
}

}  // namespace perfbench
