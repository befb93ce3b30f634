#ifndef CAFE_EMBED_EMBEDDING_STORE_H_
#define CAFE_EMBED_EMBEDDING_STORE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "embed/store_obs.h"
#include "io/serialize.h"

namespace cafe {

class ThreadPool;

/// Describes the categorical fields of a dataset: per-field cardinalities
/// and the global-id offsets that concatenate them into one id space
/// [0, total_features). CAFE keeps a single table across fields (§5.3
/// "design details"), so most stores only need total_features; field-aware
/// stores (MDE, per-field ablations) use the full layout.
class FieldLayout {
 public:
  FieldLayout() = default;
  explicit FieldLayout(std::vector<uint64_t> cardinalities);

  size_t num_fields() const { return cardinalities_.size(); }
  uint64_t total_features() const { return total_; }
  uint64_t cardinality(size_t field) const { return cardinalities_[field]; }
  uint64_t offset(size_t field) const { return offsets_[field]; }

  /// Global id of `local_id` within `field`.
  uint64_t GlobalId(size_t field, uint64_t local_id) const {
    return offsets_[field] + local_id;
  }

  /// Field that owns `global_id` (binary search over offsets).
  size_t FieldOf(uint64_t global_id) const;

  const std::vector<uint64_t>& cardinalities() const { return cardinalities_; }

 private:
  std::vector<uint64_t> cardinalities_;
  std::vector<uint64_t> offsets_;  // prefix sums, size num_fields
  uint64_t total_ = 0;
};

/// Shared configuration for all embedding compressors.
struct EmbeddingConfig {
  uint64_t total_features = 0;  ///< n: unique categorical features
  uint32_t dim = 16;            ///< d: embedding dimension
  /// Target compression ratio CR = uncompressed bytes / budget bytes.
  /// 1.0 means uncompressed.
  double compression_ratio = 1.0;
  uint64_t seed = 42;

  /// Uncompressed embedding-table size in bytes (n * d * 4).
  uint64_t UncompressedBytes() const {
    return total_features * static_cast<uint64_t>(dim) * sizeof(float);
  }
  /// Memory budget M in bytes implied by the compression ratio.
  uint64_t BudgetBytes() const {
    return static_cast<uint64_t>(
        static_cast<double>(UncompressedBytes()) / compression_ratio);
  }

  Status Validate() const;
};

/// Abstract interface every embedding compressor implements. Models and the
/// trainer are agnostic to the compression scheme behind it.
///
/// The training loop drives it at BATCH granularity:
///   LookupBatch(ids, n, out)                             -- forward
///   ApplyGradientBatch(ids, n, grads, stride, lr, clip)  -- backward + SGD
///   Tick()                                 -- once per iteration (batch)
///
/// The per-id Lookup/ApplyGradient entry points remain for tools, tests and
/// as the reference semantics, but consumers should prefer the batch API: it
/// removes one virtual dispatch per (sample, field), lets dense stores
/// software-prefetch rows, and lets adaptive stores (AdaEmbed, CAFE, MDE,
/// offline separation) deduplicate the batch so sketch updates, frequency
/// counts, and hot/cold classification run once per unique id.
///
/// Contract:
///  - LookupBatch writes ids[i]'s embedding at out + i*out_stride (the
///    packed convenience overload passes out_stride == dim) and is byte-
///    identical to n scalar Lookup calls (lookups are read-only, so probe
///    deduplication cannot change results). The stride lets consumers gather
///    field columns straight into sample-major model inputs with no staging
///    copy; out_stride >= dim always.
///  - ApplyGradientBatch consumes grads + i*grad_stride for ids[i]
///    (grad_stride >= dim; the packed overload passes dim), clamping each
///    gradient element to [-clip, clip] as it is read when clip > 0 — the
///    fused form of the consumer-side "copy the field's column block into a
///    clipped staging buffer" pass, so the model's sample-major gradient
///    tensor feeds the scatter loop directly with no staging copy. Stores
///    without importance state (full, hash, qr) apply per-occurrence
///    updates in stream order — bit-identical to the scalar loop over
///    pre-clipped gradients. Adaptive stores deduplicate: each unique id is
///    updated ONCE with its occurrence-order accumulated (clipped) gradient,
///    and importance statistics advance once per unique id (frequency
///    metrics by the occurrence count, gradient-norm metrics by the summed
///    per-occurrence clipped norms) — the paper's per-batch sketch
///    insertion. When every id in the batch is distinct the two
///    formulations coincide bit-for-bit.
///
/// Implementations may use Lookup-time state (e.g. AdaEmbed frequency) and
/// Tick-time maintenance (CAFE score decay, AdaEmbed reallocation).
class EmbeddingStore {
 public:
  virtual ~EmbeddingStore() = default;

  EmbeddingStore() = default;
  EmbeddingStore(const EmbeddingStore&) = delete;
  EmbeddingStore& operator=(const EmbeddingStore&) = delete;

  /// Embedding dimension d; Lookup writes exactly this many floats.
  virtual uint32_t dim() const = 0;

  /// Writes feature `id`'s embedding into out[0..dim).
  virtual void Lookup(uint64_t id, float* out) = 0;

  /// Applies the loss gradient w.r.t. feature `id`'s embedding (dim floats)
  /// with a plain SGD step of rate `lr`, and updates any importance
  /// statistics the scheme keeps.
  virtual void ApplyGradient(uint64_t id, const float* grad, float lr) = 0;

  /// Batched forward: writes ids[i]'s embedding into out + i*out_stride for
  /// i in [0, n), out_stride >= dim in floats. Default is the scalar-
  /// fallback loop; stores override with gather loops (prefetch) and probe
  /// deduplication. Derived classes override the strided virtual and pull
  /// the packed overload back in with `using EmbeddingStore::LookupBatch`.
  virtual void LookupBatch(const uint64_t* ids, size_t n, float* out,
                           size_t out_stride);

  /// Packed convenience overload: rows at out + i*dim.
  void LookupBatch(const uint64_t* ids, size_t n, float* out) {
    LookupBatch(ids, n, out, dim());
  }

  /// Read-only scalar lookup with NO side effects — no statistics, no
  /// owner-managed scratch — byte-identical to Lookup. This is the serving
  /// path: any number of threads may call it concurrently on a store that
  /// is not being trained (see serve/frozen_store.h).
  virtual void LookupConst(uint64_t id, float* out) const = 0;

  /// Batched, strided variant of LookupConst with the same concurrency
  /// guarantee. Default is the scalar loop; stores with gather loops
  /// override to keep prefetching (scratch-free, so still thread-safe).
  virtual void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                size_t out_stride) const;

  /// Batched backward + sparse SGD: grads + i*grad_stride holds ids[i]'s
  /// gradient (dim floats; grad_stride >= dim), each element clamped to
  /// [-clip, clip] on read when clip > 0 (clip <= 0 disables clipping).
  /// The stride + fused clip let EmbeddingLayerGroup::Backward scatter a
  /// field's column block straight out of the model's sample-major gradient
  /// tensor — no per-field staging buffer. Default is the scalar-fallback
  /// loop; see the class comment for the dedup semantics adaptive stores
  /// implement. Derived classes override this strided virtual and pull the
  /// packed overload back in with `using EmbeddingStore::ApplyGradientBatch`.
  virtual void ApplyGradientBatch(const uint64_t* ids, size_t n,
                                  const float* grads, size_t grad_stride,
                                  float lr, float clip);

  /// Packed, unclipped convenience overload (grad_stride == dim).
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          float lr) {
    ApplyGradientBatch(ids, n, grads, dim(), lr, /*clip=*/0.0f);
  }

  /// Forwards to ApplyGradientBatch; kept only because perfbench/ compiles
  /// against it.
  virtual void ApplyGradientBatchSharded(const uint64_t* ids, size_t n,
                                         const float* grads,
                                         size_t grad_stride, float lr,
                                         float clip, ThreadPool* pool,
                                         uint32_t num_shards) {
    (void)pool;
    (void)num_shards;
    ApplyGradientBatch(ids, n, grads, grad_stride, lr, clip);
  }

  /// Called once per training iteration; default no-op. Periodic work
  /// (score decay, reallocation) hangs off this.
  virtual void Tick() {}

  /// Total bytes of embedding parameters PLUS auxiliary structures
  /// (sketches, score arrays, index maps) — the paper's memory-fairness
  /// rule (§5.1.4 "we also consider the memory of additional structures").
  virtual size_t MemoryBytes() const = 0;

  /// Short scheme name for tables ("hash", "qr", "ada", "cafe", ...).
  virtual std::string Name() const = 0;

  /// Serializes the complete mutable state — embedding tables, sketches,
  /// score/frequency arrays, migration counters, RNG state — such that
  /// LoadState on a freshly constructed store with the SAME configuration
  /// reproduces this store bit-for-bit: identical lookups, MemoryBytes,
  /// counters, and identical behavior under continued training. Sizing
  /// derived from the config (row counts, sketch geometry) is written as a
  /// guard and re-checked by LoadState, not trusted from the file.
  virtual Status SaveState(io::Writer* writer) const {
    (void)writer;
    return Status::Unimplemented("store '" + Name() +
                                 "' does not support checkpointing");
  }

  /// Restores state written by SaveState. On any mismatch (shape guard,
  /// truncation) the Status is non-OK and the store must be considered
  /// unusable (partially restored) — construct a fresh one to retry.
  virtual Status LoadState(io::Reader* reader) {
    (void)reader;
    return Status::Unimplemented("store '" + Name() +
                                 "' does not support checkpointing");
  }

  /// No effect; kept only because the benchmark in perfbench/ overrides it.
  virtual bool SupportsIncrementalSnapshots() const { return false; }

  /// Switches dirty-row tracking on (enable == true) or off.
  ///
  /// Enabling: from this call on, every mutation is recorded in per-store
  /// epoch-stamped dirty sets keyed on PHYSICAL rows (table rows, hash/qr
  /// buckets, cafe hot slots + hash backing, mde projections), so SaveDelta
  /// can serialize exactly what changed. The caller MUST capture a full
  /// SaveState base at the same quiescent point (same step boundary): a
  /// delta is only meaningful relative to that base plus every prior delta.
  /// Calling it again resets the sets (a rebase). Costs O(rows) stamp
  /// memory while enabled and one branch + one stamp check per row touched
  /// on the update path.
  ///
  /// Disabling releases the stamp arrays AND resets every tracking epoch
  /// and full-section flag (sketch/score "rewritten wholesale" markers), so
  /// the next enable — possibly issued by a DIFFERENT SnapshotManager after
  /// the previous one was torn down mid-chain or with a poisoned publish —
  /// starts from a clean slate instead of inheriting stale dirty state.
  /// Disable is a no-op (and always OK) when tracking was never enabled.
  virtual Status EnableDirtyTracking(bool enable) {
    if (!enable) return Status::OK();
    return Status::Unimplemented("store '" + Name() +
                                 "' does not support incremental snapshots");
  }

  /// Convenience spelling: EnableDirtyTracking() == EnableDirtyTracking(true)
  /// (derived classes re-expose it with `using`, like the batch overloads).
  Status EnableDirtyTracking() { return EnableDirtyTracking(true); }

  /// Convenience alias for EnableDirtyTracking(false).
  void DisableDirtyTracking() { (void)EnableDirtyTracking(false); }

  /// Serializes every piece of mutable state that changed since the last
  /// SaveDelta (or since EnableDirtyTracking), then flushes the dirty sets
  /// — the O(changed rows) snapshot cut the online rollout path takes at a
  /// trainer step boundary, instead of SaveState's O(store bytes). Small
  /// O(1)/O(hot) state (counters, RNG, thresholds, free lists, sketch
  /// slots) is always included. FailedPrecondition when tracking is off.
  virtual Status SaveDelta(io::Writer* writer) {
    (void)writer;
    return Status::Unimplemented("store '" + Name() +
                                 "' does not support incremental snapshots");
  }

  /// Applies a delta written by SaveDelta to a store previously restored
  /// from the matching base SaveState plus every preceding delta IN ORDER.
  /// After the k-th LoadDelta the store is bit-identical to the live store
  /// at the k-th cut (identical SaveState bytes). On any mismatch the store
  /// must be considered unusable, like LoadState.
  virtual Status LoadDelta(io::Reader* reader) {
    (void)reader;
    return Status::Unimplemented("store '" + Name() +
                                 "' does not support incremental snapshots");
  }

  /// Achieved compression ratio (uncompressed bytes / MemoryBytes).
  double AchievedCompressionRatio(const EmbeddingConfig& config) const {
    return static_cast<double>(config.UncompressedBytes()) /
           static_cast<double>(MemoryBytes());
  }

 protected:
  /// Lazily-bound per-scheme metrics handles (store.<Name()>.*; see
  /// store_obs.h for the naming contract and why only training entry
  /// points should call this).
  StoreObs& Obs() {
    if (!obs_.bound()) obs_.Bind(Name());
    return obs_;
  }

 private:
  StoreObs obs_;
};

namespace embed_internal {

/// Uniform(-1/sqrt(dim), +1/sqrt(dim)) row init, shared by all stores so
/// that comparisons start from identically distributed parameters.
float InitBound(uint32_t dim);

/// L2 norm of a gradient row, accumulated in double in index order. Shared
/// by every importance-tracking store so scalar and batched paths (and the
/// stores between themselves) compute bit-identical scores.
inline double GradNorm(const float* grad, uint32_t dim) {
  double norm_sq = 0.0;
  for (uint32_t i = 0; i < dim; ++i) {
    norm_sq += static_cast<double>(grad[i]) * grad[i];
  }
  return std::sqrt(norm_sq);
}

/// Normalizes an ApplyGradientBatch clip parameter to a clamp bound:
/// clip <= 0 means "no clipping", which std::clamp against +/-infinity
/// reproduces exactly (finite floats, including -0.0f, pass through with
/// their bit pattern intact), so the scatter loops keep ONE code path.
inline float ClipBound(float clip) {
  return clip > 0.0f ? clip : std::numeric_limits<float>::infinity();
}

/// One gradient element, clamped on read — the fused form of the staging
/// buffer's element clamp. Bit-identical to clamping into a staging array
/// and reading it back.
inline float ClipVal(float g, float bound) {
  return std::clamp(g, -bound, bound);
}

/// GradNorm over clip-on-read elements: what the staged path computed by
/// taking GradNorm of the already-clamped staging buffer.
inline double ClippedGradNorm(const float* grad, uint32_t dim, float bound) {
  double norm_sq = 0.0;
  for (uint32_t i = 0; i < dim; ++i) {
    const double g = ClipVal(grad[i], bound);
    norm_sq += g * g;
  }
  return std::sqrt(norm_sq);
}

/// Copies one embedding row. The batched gather loops run this per id, so
/// the common dims get compile-time-sized copies (inlined vector moves)
/// instead of a variable-size memcpy dispatch per row.
inline void CopyRow(float* dst, const float* src, uint32_t dim) {
  switch (dim) {
    case 16:
      std::memcpy(dst, src, 16 * sizeof(float));
      break;
    case 32:
      std::memcpy(dst, src, 32 * sizeof(float));
      break;
    case 8:
      std::memcpy(dst, src, 8 * sizeof(float));
      break;
    default:
      std::memcpy(dst, src, dim * sizeof(float));
      break;
  }
}

}  // namespace embed_internal

}  // namespace cafe

#endif  // CAFE_EMBED_EMBEDDING_STORE_H_
