#ifndef CAFE_EMBED_MDE_EMBEDDING_H_
#define CAFE_EMBED_MDE_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "embed/batch_dedup.h"
#include "embed/dirty_rows.h"
#include "embed/embedding_store.h"

namespace cafe {

/// Mixed-Dimension Embedding (Ginart et al., ISIT 2021) — the column
/// compression baseline of §5.2.4. Each field f gets a reduced per-feature
/// dimension d_f proportional to its popularity^alpha (popularity proxied by
/// 1/cardinality, as the CAFE paper notes MDE does), plus a learned d_f x d
/// projection lifting rows to the common dimension d.
///
/// Since every feature keeps >= 1 column, the compression ratio is bounded
/// by roughly the embedding dimension d — Create() returns ResourceExhausted
/// past that, matching the truncated MDE curves in Figure 12.
class MdeEmbedding : public EmbeddingStore {
 public:
  struct Options {
    /// Popularity exponent alpha in d_f ∝ p_f^alpha (MDE's temperature).
    double alpha = 0.3;
  };

  static StatusOr<std::unique_ptr<MdeEmbedding>> Create(
      const EmbeddingConfig& config, const FieldLayout& layout,
      const Options& options);
  static StatusOr<std::unique_ptr<MdeEmbedding>> Create(
      const EmbeddingConfig& config, const FieldLayout& layout) {
    return Create(config, layout, Options{});
  }

  uint32_t dim() const override { return config_.dim; }
  void Lookup(uint64_t id, float* out) override;
  void LookupConst(uint64_t id, float* out) const override;
  void ApplyGradient(uint64_t id, const float* grad, float lr) override;
  using EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override;
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override;
  using EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override;
  size_t MemoryBytes() const override;
  std::string Name() const override { return "mde"; }
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;

  uint32_t field_dim(size_t field) const { return field_dims_[field]; }

 private:
  MdeEmbedding(const EmbeddingConfig& config, const FieldLayout& layout,
               std::vector<uint32_t> field_dims);

  /// Forward projection row -> d-dim embedding for one feature (the scalar
  /// Lookup body; the batched path runs it once per unique id).
  void LookupOne(uint64_t id, float* out) const;
  /// Row + projection backward for one feature.
  void ApplyOne(uint64_t id, const float* grad, float lr);

  EmbeddingConfig config_;
  FieldLayout layout_;
  std::vector<uint32_t> field_dims_;        // d_f per field
  std::vector<size_t> table_offset_;        // float offset of field table
  std::vector<size_t> proj_offset_;         // float offset of field proj
  std::vector<float> tables_;               // concat of n_f x d_f tables
  std::vector<float> projections_;          // concat of d_f x d matrices

  // Batch scratch, reused across calls. The d_f x d projection matmul is
  // MDE's per-id cost; dedup runs it once per unique id.
  BatchDeduper dedup_;
  std::vector<float> grad_accum_;  // num_unique x dim

  // Incremental-snapshot tracking: a feature's update dirties its d_f-wide
  // table row (keyed by global feature id) AND its field's whole d_f x d
  // projection matrix (the backward writes every projection element), so
  // projections are tracked per FIELD — a few small matrices per delta.
  DirtyRowSet dirty_features_;
  DirtyRowSet dirty_projections_;
};

}  // namespace cafe

#endif  // CAFE_EMBED_MDE_EMBEDDING_H_
