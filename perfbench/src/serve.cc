// serve-dlrm: the collective DLRM serving replay on four rank threads.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "base/sync.h"
#include "decorators.h"
#include "model/embedding.h"
#include "serve/batcher.h"
#include "serve/serving.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using bagua::Status;

namespace {

constexpr int kWorld = 4;
constexpr size_t kRequestsPerReplay = 4096;
constexpr size_t kSampledRequests = 111;
constexpr uint64_t kSampleSalt = 0x5E4E;

/// The serving gate's model and front end, offered 50k req/s (a 20 us mean
/// Poisson gap), about a quarter of the replay's capacity on four cores.
bagua::ServingConfig MakeConfig(uint64_t seed) {
  bagua::ServingConfig cfg;
  cfg.model.num_tables = 4;
  cfg.model.rows_per_table = 4096;
  cfg.model.dim = 32;
  cfg.model.dense_dim = 8;
  cfg.model.slots_per_bag = 4;
  cfg.model.seed = 20260808;
  cfg.world = kWorld;
  cfg.num_requests = kRequestsPerReplay;
  cfg.policy.max_batch = 32;
  cfg.policy.max_delay_us = 2000;
  cfg.cache_rows = 512;
  cfg.mean_interarrival_us = 20.0;
  cfg.warmup_batches = 4;
  cfg.seed = seed;
  return cfg;
}

/// One collective replay, merged across ranks the way the library's
/// single-call form merges it.
struct Replay {
  Status status;
  bagua::ServingReport report;  ///< rank 0's timing, every rank's outputs
  double wall_s = 0.0;
  bagua::PoolStats pool;
};

Replay RunReplay(const bagua::ServingConfig& cfg, SpanRecorder* recorder,
                 int32_t unit) {
  Replay out;
  std::unique_ptr<bagua::TransportGroup> group;
  if (recorder != nullptr) {
    group = std::make_unique<TracedTransport>(kWorld);
  } else {
    group = std::make_unique<bagua::TransportGroup>(kWorld);
  }
  std::vector<bagua::ServingReport> partial(kWorld);
  std::vector<Status> status(kWorld);
  const double t0 = NowSeconds();
  bagua::ParallelFor(kWorld, [&](size_t r) {
    if (recorder != nullptr) {
      recorder->Attach(static_cast<int>(r));
      SpanRecorder::SetUnit(unit);
    }
    status[r] = bagua::RunServingReplay(cfg, group.get(), static_cast<int>(r),
                                        &partial[r]);
    if (!status[r].ok()) group->Shutdown();  // unblock the peers
    SpanRecorder::Detach();
  });
  out.wall_s = NowSeconds() - t0;
  out.pool = group->pool_stats();
  for (const Status& s : status) {
    if (!s.ok()) {
      out.status = s;
      return out;
    }
  }
  bagua::ServingReport& rep = out.report;
  rep = partial[0];
  rep.cache_hits = 0;
  rep.cache_misses = 0;
  for (int r = 0; r < kWorld; ++r) {
    for (size_t i = r; i < cfg.num_requests; i += kWorld) {
      rep.logits[i] = partial[r].logits[i];
      rep.latency_us[i] = partial[r].latency_us[i];
    }
    rep.cache_hits += partial[r].cache_hits;
    rep.cache_misses += partial[r].cache_misses;
  }
  return out;
}

/// Recomputes a seeded sample of requests one at a time with the model's
/// own sampler and forward pass; returns how many match `logits` bitwise.
size_t CountMatchingSamples(const bagua::ServingConfig& cfg, uint64_t seed,
                            const std::vector<float>& logits) {
  bagua::DlrmModel model(cfg.model);
  const bagua::DlrmConfig& mc = cfg.model;
  bagua::Rng rng(bagua::MixSeed(seed, kSampleSalt));
  std::vector<float> dense;
  std::vector<uint32_t> ids;
  size_t matched = 0;
  for (size_t i = 0; i < kSampledRequests; ++i) {
    const uint64_t index = rng.UniformInt(cfg.num_requests);
    model.SampleRequest(index, &dense, &ids);
    bagua::Tensor d = bagua::Tensor::Zeros({1, mc.dense_dim});
    std::memcpy(d.data(), dense.data(), mc.dense_dim * sizeof(float));
    bagua::Tensor x = bagua::Tensor::Zeros({1, ids.size()});
    for (size_t s = 0; s < ids.size(); ++s) x[s] = static_cast<float>(ids[s]);
    bagua::Tensor out;
    if (!model.Forward(d, x, &out).ok()) continue;
    const float want = out[0];
    if (std::memcmp(&want, &logits[index], sizeof(float)) == 0) ++matched;
  }
  return matched;
}

/// Virtual queueing delay of each request (batch close - arrival).
std::vector<double> QueueDelaysUs(
    const std::vector<bagua::ServeRequest>& requests,
    const std::vector<bagua::RequestBatch>& batches) {
  std::vector<double> queue_us(requests.size(), 0.0);
  for (const bagua::RequestBatch& b : batches) {
    for (size_t t = b.begin; t < b.begin + b.count; ++t) {
      queue_us[requests[t].index] =
          static_cast<double>(b.close_us - requests[t].arrival_us);
    }
  }
  return queue_us;
}

/// Running totals over a series of replays of one stream, in memory that
/// does not grow with the replay's length: logits are compared as they
/// arrive, and each replay is reduced to its rate and latency percentiles.
/// A replay is one window of the run: the run's figures are medians over
/// replays, so a burst of load from co-tenants of the host moves the
/// replays it hit, not the run.
struct ReplaySeries {
  size_t replays = 0;
  uint64_t failed_requests = 0;
  std::vector<float> first_logits;  ///< the first replay's output
  bool repeats_first = true;  ///< every replay reproduced first_logits
  std::string error;          ///< the first failed replay's status
  double service_wall_s = 0.0;  ///< rank 0's summed batch service
  std::vector<double> rps;      ///< per replay: requests / service wall
  std::vector<double> setup_s;  ///< per replay: wall - service
  std::vector<double> latency_p50_ms, latency_p99_ms;
  /// Latency minus virtual queueing: the measured batch service.
  std::vector<double> service_p50_us, service_p99_us;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  PoolCount pool;

  void Add(const Replay& r, const std::vector<double>& queue_us) {
    ++replays;
    if (!r.status.ok()) {
      failed_requests += kRequestsPerReplay;
      if (error.empty()) error = r.status.ToString();
      return;
    }
    const std::vector<float>& logits = r.report.logits;
    if (first_logits.empty()) first_logits = logits;
    repeats_first = repeats_first &&
                    std::memcmp(logits.data(), first_logits.data(),
                                logits.size() * sizeof(float)) == 0;
    service_wall_s += r.report.service_wall_s;
    rps.push_back(kRequestsPerReplay / r.report.service_wall_s);
    // The replay builds its model, shard and cache inside the call.
    setup_s.push_back(r.wall_s - r.report.service_wall_s);
    const std::vector<double>& latency = r.report.latency_us;
    latency_p50_ms.push_back(Quantile(latency, 0.5) * 1e-3);
    latency_p99_ms.push_back(Quantile(latency, 0.99) * 1e-3);
    std::vector<double> service(latency.size());
    for (size_t i = 0; i < latency.size(); ++i) {
      service[i] = latency[i] - queue_us[i];
    }
    service_p50_us.push_back(Quantile(service, 0.5));
    service_p99_us.push_back(Quantile(service, 0.99));
    cache_hits += r.report.cache_hits;
    cache_lookups += r.report.cache_hits + r.report.cache_misses;
    pool.hits += r.pool.hits;
    pool.misses += r.pool.misses;
    // A count, never a check: the replay's steady-state miss count depends
    // on thread scheduling.
    pool.steady_misses += r.report.pool_misses_steady;
  }

  double RequestsPerSecond() const {
    return static_cast<double>(replays * kRequestsPerReplay) / service_wall_s;
  }
};

/// Correctness of one series: every replay succeeded, the sampled requests
/// recompute bitwise, and every replay repeats the first one's logits.
void CheckSeries(const Args& args, const bagua::ServingConfig& cfg,
                 ReplaySeries* series, RunResult* result) {
  result->attempted += series->replays * kRequestsPerReplay;
  result->failed += series->failed_requests;
  result->Check(series->failed_requests == 0,
                "serving replay failed: " + series->error);
  if (series->first_logits.empty()) return;
  std::vector<float>& first = series->first_logits;
  if (Corrupt(args, "serve.logits")) {
    bagua::Rng rng(bagua::MixSeed(args.seed, kSampleSalt));
    FlipLowBit(&first[rng.UniformInt(cfg.num_requests)]);
  }
  const size_t matched = CountMatchingSamples(cfg, args.seed, first);
  if (matched != kSampledRequests) {
    result->correct = false;
    result->failed += kSampledRequests - matched;
    std::fprintf(stderr,
                 "perfbench: check failed: %zu of %zu sampled requests match "
                 "a one-at-a-time recompute\n",
                 matched, kSampledRequests);
  }
  result->Check(series->repeats_first,
                "replays of one stream produced different logits");
}

}  // namespace

RunResult RunServe(const Args& args) {
  bagua::SetIntraOpThreads(1);
  RunResult result = EmptyResult(args.trace);
  const bagua::ServingConfig cfg = MakeConfig(args.seed);
  const double budget = static_cast<double>(args.seconds);

  // The replay forms this arrival stream and these batches internally.
  const std::vector<bagua::ServeRequest> requests = bagua::GenerateArrivals(
      cfg.num_requests, cfg.mean_interarrival_us, cfg.seed);
  const std::vector<bagua::RequestBatch> batches =
      bagua::FormBatches(requests, cfg.policy);
  const std::vector<double> queue_us = QueueDelaysUs(requests, batches);

  if (!args.trace) {
    ReplaySeries series;
    const double t0 = NowSeconds();
    for (int32_t i = 0;
         i < kSetupRepeats || NowSeconds() - t0 < budget; ++i) {
      series.Add(RunReplay(cfg, nullptr, i), queue_us);
    }
    CheckSeries(args, cfg, &series, &result);
    if (series.failed_requests > 0) return result;
    result.Set("throughput", Median(series.rps));
    result.Set("latency_ms.p50", Median(series.latency_p50_ms));
    result.Set("latency_ms.tail", Median(series.latency_p99_ms));
    result.Set("setup_s", Median(series.setup_s));
    result.Set("peak_rss_mb", PeakRssMb());
    return result;
  }

  // Untraced and traced replays of the same stream alternate, so drift in
  // machine speed hits both alike.
  SpanRecorder recorder;
  ProcessCounters moved;
  ReplaySeries untraced, traced;
  const double t0 = NowSeconds();
  for (int32_t i = 0; i == 0 || NowSeconds() - t0 < budget; ++i) {
    untraced.Add(RunReplay(cfg, nullptr, i), queue_us);
    const ProcessCounters before = ProcessCounters::Sample();
    traced.Add(RunReplay(cfg, &recorder, i), queue_us);
    moved.AddDelta(before, ProcessCounters::Sample());
  }
  CheckSeries(args, cfg, &untraced, &result);
  CheckSeries(args, cfg, &traced, &result);
  if (untraced.failed_requests > 0 || traced.failed_requests > 0) {
    return result;
  }
  std::vector<float>& logits = traced.first_logits;
  if (Corrupt(args, "traced")) FlipLowBit(&logits[0]);
  result.Check(std::memcmp(logits.data(), untraced.first_logits.data(),
                           logits.size() * sizeof(float)) == 0,
               "traced logits differ from untraced");

  const double units =
      static_cast<double>(traced.replays * batches.size() * kWorld);
  SetCommonLayerMetrics(Aggregate(recorder), moved, traced.pool, units,
                        &result);
  result.Set("serve.service_us.p50", Median(traced.service_p50_us));
  result.Set("serve.service_us.p99", Median(traced.service_p99_us));
  result.Set("serve.cache_hit_rate",
             static_cast<double>(traced.cache_hits) / traced.cache_lookups);
  result.Set("serve.batch_size", static_cast<double>(cfg.num_requests) /
                                     static_cast<double>(batches.size()));
  result.Set("trace.overhead",
             traced.RequestsPerSecond() / untraced.RequestsPerSecond());
  WriteSpans(args, recorder);
  return result;
}

}  // namespace perfbench
