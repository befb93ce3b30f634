// Per-layer tracing for the traced (--trace 1) benchmark runs.
//
// Everything here wraps the library's PUBLIC interfaces from the outside:
// an EmbeddingStore decorator, a RecModel decorator and a ByteChannel
// decorator. The library itself is untouched, and the untraced runs build
// the plain stack, so the end-to-end numbers never pay for tracing.
//
// Attribution: a TracedModel call resets this thread's EmbedScope, runs the
// wrapped model, and then reads how long the TracedStore calls made inside
// it took. Embedding time per step (or per micro-batch) and the dense
// "self" time therefore add up to the step exactly, by construction.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/embedding_store.h"
#include "models/model.h"
#include "replicate/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Value at quantile q (0..1) of `v` by nearest rank; 0 for an empty set.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// Named span samples (microseconds unless the name says otherwise),
/// kept in memory and read once when the run ends. Thread-safe.
class Spans {
 public:
  void Add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }
  std::vector<double> Get(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
  }
  double P(const std::string& name, double q) const {
    return Quantile(Get(name), q);
  }
  double Sum(const std::string& name) const {
    double sum = 0.0;
    for (double v : Get(name)) sum += v;
    return sum;
  }
  double Mean(const std::string& name) const {
    const std::vector<double> v = Get(name);
    return v.empty() ? 0.0 : Sum(name) / static_cast<double>(v.size());
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Embedding-store time spent by this thread since the enclosing
/// TracedModel call began.
struct EmbedScope {
  int64_t gather_ns = 0;
  int64_t scatter_ns = 0;
  int64_t tick_ns = 0;
  /// SaveState/SaveDelta calls: a snapshot boundary copied state.
  uint64_t saves = 0;
};
inline thread_local EmbedScope tls_embed;

/// Forwarding EmbeddingStore decorator. Every virtual forwards to `inner`;
/// the batch entry points, Tick and the snapshot hooks are timed.
class TracedStore : public cafe::EmbeddingStore {
 public:
  /// With `apply_spans` (replica-side buffer stores), LoadState/LoadDelta
  /// are recorded there as replicate.apply_us.
  explicit TracedStore(cafe::EmbeddingStore* inner,
                       Spans* apply_spans = nullptr)
      : inner_(inner), apply_spans_(apply_spans) {}
  TracedStore(std::unique_ptr<cafe::EmbeddingStore> owned, Spans* apply_spans)
      : inner_(owned.get()), owned_(std::move(owned)),
        apply_spans_(apply_spans) {}

  uint32_t dim() const override { return inner_->dim(); }
  void Lookup(uint64_t id, float* out) override { inner_->Lookup(id, out); }
  void ApplyGradient(uint64_t id, const float* grad, float lr) override {
    inner_->ApplyGradient(id, grad, lr);
  }
  void LookupConst(uint64_t id, float* out) const override {
    inner_->LookupConst(id, out);
  }
  using cafe::EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override {
    const int64_t t0 = NowNs();
    inner_->LookupBatch(ids, n, out, out_stride);
    tls_embed.gather_ns += NowNs() - t0;
    gather_rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override {
    const int64_t t0 = NowNs();
    inner_->LookupBatchConst(ids, n, out, out_stride);
    tls_embed.gather_ns += NowNs() - t0;
    gather_rows_.fetch_add(n, std::memory_order_relaxed);
  }
  using cafe::EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr,
                          float clip) override {
    const int64_t t0 = NowNs();
    inner_->ApplyGradientBatch(ids, n, grads, grad_stride, lr, clip);
    tls_embed.scatter_ns += NowNs() - t0;
    scatter_rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void ApplyGradientBatchSharded(const uint64_t* ids, size_t n,
                                 const float* grads, size_t grad_stride,
                                 float lr, float clip, cafe::ThreadPool* pool,
                                 uint32_t num_shards) override {
    const int64_t t0 = NowNs();
    inner_->ApplyGradientBatchSharded(ids, n, grads, grad_stride, lr, clip,
                                      pool, num_shards);
    tls_embed.scatter_ns += NowNs() - t0;
    scatter_rows_.fetch_add(n, std::memory_order_relaxed);
  }
  void Tick() override {
    const int64_t t0 = NowNs();
    inner_->Tick();
    tls_embed.tick_ns += NowNs() - t0;
  }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::string Name() const override { return inner_->Name(); }
  cafe::Status SaveState(cafe::io::Writer* writer) const override {
    ++tls_embed.saves;
    return inner_->SaveState(writer);
  }
  cafe::Status LoadState(cafe::io::Reader* reader) override {
    return TimedApply([&] { return inner_->LoadState(reader); });
  }
  bool SupportsIncrementalSnapshots() const override {
    return inner_->SupportsIncrementalSnapshots();
  }
  using cafe::EmbeddingStore::EnableDirtyTracking;
  cafe::Status EnableDirtyTracking(bool enable) override {
    return inner_->EnableDirtyTracking(enable);
  }
  cafe::Status SaveDelta(cafe::io::Writer* writer) override {
    ++tls_embed.saves;
    return inner_->SaveDelta(writer);
  }
  cafe::Status LoadDelta(cafe::io::Reader* reader) override {
    return TimedApply([&] { return inner_->LoadDelta(reader); });
  }

  uint64_t gather_rows() const { return gather_rows_.load(); }
  uint64_t scatter_rows() const { return scatter_rows_.load(); }

 private:
  template <typename Fn>
  cafe::Status TimedApply(Fn&& fn) {
    const int64_t t0 = NowNs();
    cafe::Status status = fn();
    const int64_t t1 = NowNs();
    if (apply_spans_ != nullptr) {
      // The end stamp lets the run attribute each apply to the replica
      // generation it was published under.
      apply_spans_->Add("replicate.apply_end_ns", static_cast<double>(t1));
      apply_spans_->Add("replicate.apply_us", (t1 - t0) / 1e3);
    }
    return status;
  }

  cafe::EmbeddingStore* inner_;
  std::unique_ptr<cafe::EmbeddingStore> owned_;
  Spans* apply_spans_;
  mutable std::atomic<uint64_t> gather_rows_{0};
  std::atomic<uint64_t> scatter_rows_{0};
};

/// Forwarding RecModel decorator: spans around TrainStep and Predict,
/// split into embedding time (from the TracedStore underneath) and the
/// dense "self" remainder.
class TracedModel : public cafe::RecModel {
 public:
  TracedModel(std::unique_ptr<cafe::RecModel> inner, Spans* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  double TrainStep(const cafe::Batch& batch) override {
    tls_embed = EmbedScope{};
    const int64_t t0 = NowNs();
    const double loss = inner_->TrainStep(batch);
    const int64_t total = NowNs() - t0;
    const EmbedScope scope = tls_embed;
    spans_->Add("model.train_us", total / 1e3);
    spans_->Add("embed.gather_us", scope.gather_ns / 1e3);
    spans_->Add("embed.scatter_us", scope.scatter_ns / 1e3);
    spans_->Add("embed.tick_us", scope.tick_ns / 1e3);
    spans_->Add("nn.train_self_us",
                (total - scope.gather_ns - scope.scatter_ns - scope.tick_ns) /
                    1e3);
    return loss;
  }
  void Predict(const cafe::Batch& batch, std::vector<float>* logits) override {
    tls_embed = EmbedScope{};
    const int64_t t0 = NowNs();
    inner_->Predict(batch, logits);
    const int64_t total = NowNs() - t0;
    const int64_t gather = tls_embed.gather_ns;
    spans_->Add("serve.predict_us", total / 1e3);
    spans_->Add("serve.batch_samples", static_cast<double>(batch.batch_size));
    spans_->Add("embed.gather_const_us", gather / 1e3);
    spans_->Add("nn.predict_self_us", (total - gather) / 1e3);
  }
  std::string Name() const override { return inner_->Name(); }
  cafe::EmbeddingStore* store() override { return inner_->store(); }
  size_t DenseParameters() const override { return inner_->DenseParameters(); }
  void CollectDenseParams(std::vector<cafe::Param>* out) override {
    inner_->CollectDenseParams(out);
  }
  cafe::Optimizer* optimizer() override { return inner_->optimizer(); }
  void SetBackwardParallelism(cafe::ThreadPool* pool,
                              uint32_t shards) override {
    inner_->SetBackwardParallelism(pool, shards);
  }

 private:
  std::unique_ptr<cafe::RecModel> inner_;
  Spans* spans_;
};

/// Replica-end ByteChannel decorator: counts reads and bytes read.
class TracedChannel : public cafe::replicate::ByteChannel {
 public:
  explicit TracedChannel(std::unique_ptr<cafe::replicate::ByteChannel> inner)
      : inner_(std::move(inner)) {}

  cafe::Status Write(const void* data, size_t size) override {
    return inner_->Write(data, size);
  }
  cafe::StatusOr<size_t> Read(void* out, size_t max) override {
    auto n = inner_->Read(out, max);
    read_calls_.fetch_add(1, std::memory_order_relaxed);
    if (n.ok()) read_bytes_.fetch_add(*n, std::memory_order_relaxed);
    return n;
  }
  void Close() override { inner_->Close(); }

  /// Read these while the owning ReplicaManager is still alive.
  uint64_t read_calls() const { return read_calls_.load(); }
  uint64_t read_bytes() const { return read_bytes_.load(); }

 private:
  std::unique_ptr<cafe::replicate::ByteChannel> inner_;
  std::atomic<uint64_t> read_calls_{0};
  std::atomic<uint64_t> read_bytes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
