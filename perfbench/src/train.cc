// train-allreduce and train-qsgd8: data-parallel MLP training through
// BaguaRuntime on three rank threads.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "base/parallel.h"
#include "base/sync.h"
#include "core/runtime.h"
#include "decorators.h"
#include "faults/wire.h"
#include "model/data.h"
#include "model/net.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using bagua::Status;

namespace {

constexpr int kRanks = 3;
constexpr size_t kBatch = 64;  // samples per rank per step
constexpr size_t kWarmupSteps = 5;
// Every run times at least kMinSteps steps, so the loss window — the
// last kLossWindow of them — is the same steps whatever the machine's
// speed, and the loss is bitwise-stable for a seed.
constexpr size_t kMinSteps = 60;
constexpr size_t kLossWindow = 20;
constexpr uint64_t kModelSeed = 7;
// Throughput and the p90 step time are taken per window of this many steps
// (ten beyond the p90), then the median over windows.
constexpr size_t kWindowSteps = 100;
constexpr double kLr = 0.05;
// The traced run alternates its untraced and traced jobs about this many
// times over the budget.
constexpr size_t kTraceChunks = 10;

struct Worker {
  std::unique_ptr<bagua::Net> net;
  std::unique_ptr<bagua::Optimizer> optimizer;
  std::unique_ptr<bagua::Algorithm> algorithm;
  std::unique_ptr<bagua::BaguaRuntime> runtime;
};

/// What a timed pass produced.
struct TrainPass {
  double wall_s = 0.0;
  std::vector<double> step_ms;  ///< rank 0's TrainStepCE, per step
  std::vector<double> loop_s;   ///< rank 0, step end to step end
  std::vector<std::vector<double>> losses;   ///< [rank][timed step]
  std::vector<uint64_t> param_hash;          ///< per rank, after the pass
  uint64_t failed_steps = 0;
};

/// One set-up instance of the workload: data, cluster, three workers.
class TrainJob {
 public:
  TrainJob(bool qsgd, uint64_t seed, bool traced)
      : qsgd_(qsgd), seed_(seed), traced_(traced) {}

  /// Construction, data generation, BAGUA's profiling step and warm-up.
  Status SetUp() {
    bagua::SyntheticClassification::Options opts;
    opts.num_samples = 8192;
    opts.dim = 256;
    opts.classes = 16;
    opts.seed = seed_;
    data_ = std::make_unique<bagua::SyntheticClassification>(opts);

    // train-allreduce: one node of three devices, so C_FP_S takes the
    // hierarchical AllreduceAuto path. train-qsgd8: three single-device
    // nodes, because on one node hierarchical C_LP_S reduces at full
    // precision and compresses nothing.
    const bagua::ClusterTopology topo =
        qsgd_ ? bagua::ClusterTopology::Make(kRanks, 1)
              : bagua::ClusterTopology::Make(1, kRanks);
    std::unique_ptr<bagua::TransportGroup> group;
    if (traced_) {
      group = std::make_unique<TracedTransport>(kRanks);
    } else {
      group = std::make_unique<bagua::TransportGroup>(kRanks);
    }
    world_ = std::make_unique<bagua::CommWorld>(topo, seed_, std::move(group));

    bagua::BaguaOptions options;
    options.hierarchical = true;
    options.async_comm = false;
    options.bucket_bytes = 512u << 10;
    workers_.resize(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      Worker& w = workers_[r];
      w.net = std::make_unique<bagua::Net>();
      const size_t dims[] = {256, 512, 512, 16};
      for (size_t i = 0; i < 3; ++i) {
        auto layer = std::make_unique<bagua::DenseLayer>(
            "fc" + std::to_string(i), dims[i], dims[i + 1],
            i == 2 ? bagua::Activation::kNone : bagua::Activation::kRelu);
        if (traced_) {
          w.net->Add(std::make_unique<TracedLayer>(std::move(layer)));
        } else {
          w.net->Add(std::move(layer));
        }
      }
      w.net->InitParams(kModelSeed);
      if (traced_) {
        w.optimizer = std::make_unique<TracedSgd>(kLr);
      } else {
        w.optimizer = std::make_unique<bagua::SgdOptimizer>(kLr);
      }
      auto algorithm = bagua::MakeAlgorithm(qsgd_ ? "qsgd8" : "allreduce");
      if (!algorithm.ok()) return algorithm.status();
      w.algorithm = std::move(algorithm).value();
      if (traced_) {
        w.algorithm = std::make_unique<TracedAlgorithm>(std::move(w.algorithm));
      }
      w.runtime = std::make_unique<bagua::BaguaRuntime>(
          world_.get(), r, w.net.get(), w.optimizer.get(), w.algorithm.get(),
          options);
    }
    // Step 0 is BAGUA's profiling step (bucketing, flattening, plan).
    TrainPass warm;
    Steps(1 + kWarmupSteps, 0.0, nullptr, &warm);
    if (warm.failed_steps > 0) return Status::Internal("warm-up step failed");
    warm_step_s_ = Median(std::vector<double>(warm.step_ms.begin() + 1,
                                              warm.step_ms.end())) *
                   1e-3;
    return Status::OK();
  }

  /// Steps that fit into `budget_s`, from the warm-up step time.
  size_t StepsFor(double budget_s) const {
    const double est = warm_step_s_ > 0.0 ? budget_s / warm_step_s_ : 0.0;
    return std::max<size_t>(1, static_cast<size_t>(est));
  }

  /// Runs at least `steps` more lockstep steps on every rank and appends
  /// them to `pass`; with `budget_s` > 0, keeps stepping until that much
  /// time has passed. With a recorder, each rank thread records its spans,
  /// tagged with the step's index in the pass.
  void Steps(size_t steps, double budget_s, SpanRecorder* recorder,
             TrainPass* pass) {
    const size_t done = pass->step_ms.size();
    pass->losses.resize(kRanks);
    std::vector<uint64_t> failed(kRanks, 0);
    const size_t first = next_batch_;
    // Rank 0 ends the pass: once the budget is spent after step k it sets
    // stop_at = k + 2. A peer can have begun step k + 1 but cannot finish
    // it without rank 0, which reads the store first, so every rank runs
    // exactly the steps below stop_at.
    std::atomic<size_t> stop_at(budget_s > 0.0 ? SIZE_MAX : steps);
    const double t0 = NowSeconds();
    double last_end = t0;
    bagua::ParallelFor(kRanks, [&](size_t rank) {
      const int r = static_cast<int>(rank);
      if (recorder != nullptr) recorder->Attach(r);
      const size_t per_epoch = data_->BatchesPerEpoch(r, kRanks, kBatch);
      bagua::Tensor x, y;
      for (size_t k = 0; k < stop_at.load(); ++k) {
        const size_t b = first + k;
        Status st = data_->GetShardBatch(r, kRanks, b / per_epoch,
                                         b % per_epoch, kBatch, &x, &y);
        double loss = 0.0;
        const double s0 = NowSeconds();
        if (st.ok()) {
          SpanRecorder::SetUnit(static_cast<int32_t>(done + k));
          ScopedSpan span(SpanKind::kStep);
          auto res = workers_[rank].runtime->TrainStepCE(x, y);
          st = res.status();
          if (res.ok()) loss = *res;
        }
        const double s1 = NowSeconds();
        if (!st.ok()) {
          // Unblock the peers waiting on this rank, then stop.
          ++failed[rank];
          world_->group()->Shutdown();
          break;
        }
        pass->losses[rank].push_back(loss);
        if (r != 0) continue;
        pass->step_ms.push_back((s1 - s0) * 1e3);
        pass->loop_s.push_back(s1 - last_end);
        last_end = s1;
        if (stop_at.load() == SIZE_MAX && k + 1 >= steps &&
            s1 - t0 >= budget_s) {
          stop_at.store(k + 2);
        }
      }
      SpanRecorder::Detach();
    });
    // A failed rank stops early; pad its losses so the checks see NaN.
    size_t ran = pass->step_ms.size();
    for (const auto& l : pass->losses) ran = std::max(ran, l.size());
    pass->step_ms.resize(ran, std::nan(""));
    pass->loop_s.resize(ran, std::nan(""));
    for (auto& l : pass->losses) l.resize(ran, std::nan(""));
    pass->wall_s += NowSeconds() - t0;
    next_batch_ = first + (ran - done);
    for (uint64_t f : failed) pass->failed_steps += f;
    pass->param_hash.clear();
    for (Worker& w : workers_) {
      std::vector<float> flat;
      for (const bagua::Param& p : w.net->params()) {
        flat.insert(flat.end(), p.value->data(),
                    p.value->data() + p.value->numel());
      }
      pass->param_hash.push_back(
          bagua::wire::Fnv1a(flat.data(), flat.size() * sizeof(float)));
    }
  }

  bagua::TransportGroup* group() { return world_->group(); }

 private:
  bool qsgd_;
  uint64_t seed_;
  bool traced_;
  std::unique_ptr<bagua::SyntheticClassification> data_;
  std::unique_ptr<bagua::CommWorld> world_;
  std::vector<Worker> workers_;
  size_t next_batch_ = 0;
  double warm_step_s_ = 0.0;
};

/// Mean loss over ranks at timed step k.
double StepLoss(const TrainPass& pass, size_t k) {
  double sum = 0.0;
  for (const auto& l : pass.losses) sum += l[k];
  return sum / kRanks;
}

/// Mean loss over the loss window (the last kLossWindow of kMinSteps).
double WindowLoss(const TrainPass& pass) {
  double sum = 0.0;
  for (size_t k = kMinSteps - kLossWindow; k < kMinSteps; ++k) {
    sum += StepLoss(pass, k);
  }
  return sum / kLossWindow;
}

/// The per-pass correctness checks: every rank's parameters are bitwise
/// equal, and the loss is finite and below its first timed value.
void CheckPass(const Args& args, TrainPass* pass, RunResult* result) {
  result->attempted += pass->step_ms.size() * kRanks;
  result->failed += pass->failed_steps;
  if (pass->failed_steps > 0) result->correct = false;
  if (Corrupt(args, "train.params")) pass->param_hash[1] ^= 1;
  bool same = true;
  for (uint64_t h : pass->param_hash) same = same && h == pass->param_hash[0];
  result->Check(same, "ranks' final parameters differ");
  double window = WindowLoss(*pass);
  if (Corrupt(args, "train.loss")) window = std::nan("");
  result->Check(std::isfinite(window) && window < StepLoss(*pass, 0),
                "loss is not finite or did not fall");
}

}  // namespace

RunResult RunTrain(const Args& args, bool qsgd) {
  bagua::SetIntraOpThreads(1);
  RunResult result = EmptyResult(args.trace);
  const double budget = static_cast<double>(args.seconds);

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<TrainJob> job;
    for (int i = 0; i < kSetupRepeats; ++i) {
      job.reset();
      const double t0 = NowSeconds();
      job = std::make_unique<TrainJob>(qsgd, args.seed, /*traced=*/false);
      const Status st = job->SetUp();
      setup_s.push_back(NowSeconds() - t0);
      if (!st.ok()) {
        result.Check(false, "set-up: " + st.ToString());
        return result;
      }
    }
    TrainPass pass;
    job->Steps(kMinSteps, budget, nullptr, &pass);
    CheckPass(args, &pass, &result);
    result.Set("throughput",
               WindowedRate(pass.loop_s, kWindowSteps, kRanks * kBatch));
    result.Set("latency_ms.p50", Quantile(pass.step_ms, 0.5));
    result.Set("latency_ms.tail",
               WindowedQuantile(pass.step_ms, kWindowSteps, 0.9));
    result.Set("setup_s", Median(setup_s));
    result.Set("peak_rss_mb", PeakRssMb());
    return result;
  }

  // Traced run: an untraced and a traced job take turns over the same
  // steps, chunk by chunk, so drift in machine speed hits both alike.
  TrainJob plain(qsgd, args.seed, /*traced=*/false);
  TrainJob wrapped(qsgd, args.seed, /*traced=*/true);
  for (TrainJob* job : {&plain, &wrapped}) {
    const Status st = job->SetUp();
    if (!st.ok()) {
      result.Check(false, "set-up: " + st.ToString());
      return result;
    }
  }
  const size_t chunk = plain.StepsFor(budget / (2 * kTraceChunks));
  SpanRecorder recorder;
  ProcessCounters moved;
  PoolCount pool;
  TrainPass untraced, traced;
  const double t0 = NowSeconds();
  while (untraced.step_ms.size() < kMinSteps || NowSeconds() - t0 < budget) {
    plain.Steps(chunk, 0.0, nullptr, &untraced);
    const ProcessCounters before = ProcessCounters::Sample();
    const bagua::PoolStats pool_before = wrapped.group()->pool_stats();
    wrapped.Steps(chunk, 0.0, &recorder, &traced);
    const bagua::PoolStats pool_after = wrapped.group()->pool_stats();
    moved.AddDelta(before, ProcessCounters::Sample());
    pool.hits += pool_after.hits - pool_before.hits;
    pool.misses += pool_after.misses - pool_before.misses;
  }
  pool.steady_misses = pool.misses;  // set-up already warmed the job up
  CheckPass(args, &untraced, &result);
  CheckPass(args, &traced, &result);
  if (Corrupt(args, "traced")) traced.param_hash[0] ^= 1;
  result.Check(traced.param_hash[0] == untraced.param_hash[0],
               "traced parameters differ from untraced");

  const LayerTotals t = Aggregate(recorder);
  const double units = static_cast<double>(traced.step_ms.size() * kRanks);
  SetCommonLayerMetrics(t, moved, pool, units, &result);
  result.Set("model.forward_ms", t.total(SpanKind::kForward) / units);
  result.Set("model.backward_ms", t.total(SpanKind::kBackward) / units);
  result.Set("model.optimizer_ms", t.total(SpanKind::kOptimizer) / units);
  result.Set("model.loss", WindowLoss(traced));
  result.Set("algorithms.buckets",
             static_cast<double>(t.calls(SpanKind::kBucket)) / units);
  result.Set("algorithms.bucket_ms", t.total(SpanKind::kBucket) / units);
  result.Set("algorithms.self_ms", t.self(SpanKind::kBucket) / units);
  result.Set("core.self_ms", t.self(SpanKind::kStep) / units);
  result.Set("core.span_coverage",
             1.0 - t.self(SpanKind::kStep) / t.total(SpanKind::kStep));
  result.Set("trace.overhead", untraced.wall_s / traced.wall_s);
  WriteSpans(args, recorder);
  return result;
}

}  // namespace perfbench
