#ifndef CAFE_EMBED_HASH_EMBEDDING_H_
#define CAFE_EMBED_HASH_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "embed/dirty_rows.h"
#include "embed/row_pool.h"
#include "embed/embedding_store.h"

namespace cafe {

/// Hash embedding (the "hashing trick", Weinberger et al. 2009): a table of
/// floor(n / CR) rows; feature id maps to row hash(id) % rows, so colliding
/// features share a row and each other's gradients. The simplest row
/// compressor, the lower-bound baseline of the paper, and the only baseline
/// besides CAFE that reaches 10000x compression.
class HashEmbedding : public EmbeddingStore {
 public:
  static StatusOr<std::unique_ptr<HashEmbedding>> Create(
      const EmbeddingConfig& config);

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
  size_t MemoryBytes() const override { return pool_.MemoryBytes(); }
  std::string Name() const override { return "hash"; }
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;

  uint64_t num_rows() const { return num_rows_; }

 private:
  HashEmbedding(const EmbeddingConfig& config, uint64_t num_rows);

  uint64_t RowOf(uint64_t id) const { return hash_.Bounded(id, num_rows_); }

  /// Every kCollisionSampleInterval backward batches, measures the batch's
  /// observed bucket-sharing rate (1 - unique buckets / unique ids) into
  /// the store.hash.sampled_collision_rate gauge. Sampled because an exact
  /// count needs two dedup passes the hot path should not pay.
  void MaybeSampleCollisions(const uint64_t* ids, size_t n);

  EmbeddingConfig config_;
  uint64_t num_rows_;
  SeededHash hash_;
  RowPool pool_;  // num_rows x dim, slab-pooled
  /// Row indices of the in-flight batch: hashed once up front so the
  /// gather loop can prefetch rows ahead of the copy. Reused across calls.
  std::vector<uint64_t> row_scratch_;
  DirtyRowSet dirty_;  // hash buckets touched since the last delta cut
  size_t collision_sample_tick_ = 0;
};

}  // namespace cafe

#endif  // CAFE_EMBED_HASH_EMBEDDING_H_
