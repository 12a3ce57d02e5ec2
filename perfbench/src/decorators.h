#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

// Decorators that time the library's layers from outside. Each forwards to
// the real object and records one span per call on the calling thread
// (spans.h), so a traced run computes exactly what an untraced run does.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "model/layer.h"
#include "model/optimizer.h"
#include "spans.h"
#include "transport/transport.h"

namespace perfbench {

/// Transport that spans every virtual messaging call, in the style of
/// transport/delay.h. Isend and Wait reach Send and Recv through the
/// virtual surface, so they are covered too.
class TracedTransport : public bagua::TransportGroup {
 public:
  explicit TracedTransport(int world_size) : TransportGroup(world_size) {}

  bagua::Status Send(int src, int dst, uint64_t tag, const void* data,
                     size_t bytes) override {
    ScopedSpan span(SpanKind::kSend, bytes);
    return TransportGroup::Send(src, dst, tag, data, bytes);
  }
  bagua::Status SendBuffer(int src, int dst, uint64_t tag,
                           std::vector<uint8_t>&& payload) override {
    ScopedSpan span(SpanKind::kSend, payload.size());
    return TransportGroup::SendBuffer(src, dst, tag, std::move(payload));
  }
  bagua::Status Recv(int src, int dst, uint64_t tag,
                     std::vector<uint8_t>* out) override {
    ScopedSpan span(SpanKind::kRecv);
    return TransportGroup::Recv(src, dst, tag, out);
  }
  bagua::Status RecvWithDeadline(int src, int dst, uint64_t tag,
                                 std::chrono::milliseconds timeout,
                                 std::vector<uint8_t>* out) override {
    ScopedSpan span(SpanKind::kRecv);
    return TransportGroup::RecvWithDeadline(src, dst, tag, timeout, out);
  }
  bagua::Status TryRecvAny(int dst, uint64_t tag, std::vector<uint8_t>* out,
                           int* src_out) override {
    ScopedSpan span(SpanKind::kRecv);
    return TransportGroup::TryRecvAny(dst, tag, out, src_out);
  }
};

/// Model layer wrapper, added with Net::Add. params() hands out the inner
/// layer's slots, so the runtime's flattening re-homes the inner tensors.
class TracedLayer : public bagua::Layer {
 public:
  explicit TracedLayer(std::unique_ptr<bagua::Layer> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  bagua::Status Forward(const bagua::Tensor& in, bagua::Tensor* out) override {
    ScopedSpan span(SpanKind::kForward);
    return inner_->Forward(in, out);
  }
  bagua::Status Backward(const bagua::Tensor& grad_out,
                         bagua::Tensor* grad_in) override {
    ScopedSpan span(SpanKind::kBackward);
    return inner_->Backward(grad_out, grad_in);
  }
  std::vector<bagua::Param> params() override { return inner_->params(); }
  void InitParams(bagua::Rng* rng) override { inner_->InitParams(rng); }

 private:
  std::unique_ptr<bagua::Layer> inner_;
};

/// SGD behind a timing wrapper. Only SGD: 1-bit Adam dynamic_casts
/// ctx->optimizer to AdamOptimizer, which a wrapper would break.
class TracedSgd : public bagua::Optimizer {
 public:
  explicit TracedSgd(double lr) : inner_(lr) {}

  bagua::Status Step(size_t slot, float* param, const float* grad,
                     size_t n) override {
    ScopedSpan span(SpanKind::kOptimizer);
    return inner_.Step(slot, param, grad, n);
  }
  const char* name() const override { return inner_.name(); }
  double FlopsPerElement() const override { return inner_.FlopsPerElement(); }

 private:
  bagua::SgdOptimizer inner_;
};

/// Algorithm wrapper forwarding every virtual; spans the per-bucket hook
/// and the step-end hook.
class TracedAlgorithm : public bagua::Algorithm {
 public:
  explicit TracedAlgorithm(std::unique_ptr<bagua::Algorithm> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  bagua::AlgorithmTraits traits() const override { return inner_->traits(); }
  bagua::Status Init(bagua::BaguaContext* ctx,
                     std::vector<bagua::Bucket>* buckets) override {
    return inner_->Init(ctx, buckets);
  }
  bagua::Status OnBucketReady(bagua::BaguaContext* ctx,
                              bagua::Bucket* bucket) override {
    ScopedSpan span(SpanKind::kBucket, bucket->numel * sizeof(float));
    return inner_->OnBucketReady(ctx, bucket);
  }
  bagua::Status OnStepEnd(bagua::BaguaContext* ctx) override {
    ScopedSpan span(SpanKind::kStepEnd);
    return inner_->OnStepEnd(ctx);
  }
  bagua::Status Finish(bagua::BaguaContext* ctx) override {
    return inner_->Finish(ctx);
  }
  double CommCost(size_t numel, const bagua::ClusterTopology& topo,
                  const bagua::NetworkConfig& net,
                  bool hierarchical) const override {
    return inner_->CommCost(numel, topo, net, hierarchical);
  }
  double CodecCost(size_t numel,
                   const bagua::DeviceConfig& dev) const override {
    return inner_->CodecCost(numel, dev);
  }
  double WireBytes(size_t numel, const bagua::ClusterTopology& topo,
                   bool hierarchical) const override {
    return inner_->WireBytes(numel, topo, hierarchical);
  }
  int BarrierGroup(int world) const override {
    return inner_->BarrierGroup(world);
  }
  double BarrierFreq() const override { return inner_->BarrierFreq(); }

 private:
  std::unique_ptr<bagua::Algorithm> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
