#ifndef CAFE_EMBED_OFFLINE_SEPARATION_H_
#define CAFE_EMBED_OFFLINE_SEPARATION_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "embed/batch_dedup.h"
#include "embed/dirty_rows.h"
#include "embed/row_pool.h"
#include "embed/embedding_store.h"

namespace cafe {

/// Offline feature separation (paper §5.2.6): an oracle variant of CAFE
/// that, given full-dataset frequency statistics collected in advance,
/// assigns the top-k most frequent features exclusive rows and hashes the
/// rest into a shared table. No sketch, no migration — it cannot adapt, and
/// it needs an extra offline pass, but it separates features with zero
/// error, making it the natural control for HotSketch's accuracy.
///
/// `hot_rows`/`shared_rows` are passed in so benches can give it exactly the
/// same embedding memory split CAFE uses at the same compression ratio
/// (the paper's comparison protocol). Frequency statistics are charged to
/// MemoryBytes() as 4 bytes per feature ("memory storage ... required for
/// statistics, causing much overhead").
class OfflineSeparationEmbedding : public EmbeddingStore {
 public:
  /// `hot_ids` are the features to give exclusive rows, strongest first;
  /// only the first `hot_rows` are used.
  static StatusOr<std::unique_ptr<OfflineSeparationEmbedding>> Create(
      const EmbeddingConfig& config, uint64_t hot_rows, uint64_t shared_rows,
      const std::vector<uint64_t>& hot_ids);

  uint32_t dim() const override { return config_.dim; }
  void Lookup(uint64_t id, float* out) override;
  void LookupConst(uint64_t id, float* out) const override;
  void ApplyGradient(uint64_t id, const float* grad, float lr) override;
  using EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override;
  using EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override;
  size_t MemoryBytes() const override;
  std::string Name() const override { return "offline"; }
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;

  uint64_t hot_rows() const { return hot_rows_; }

 private:
  OfflineSeparationEmbedding(const EmbeddingConfig& config, uint64_t hot_rows,
                             uint64_t shared_rows,
                             const std::vector<uint64_t>& hot_ids);

  /// Hot-or-shared row of `id` (one hash-map probe; the batched paths
  /// resolve it once per unique id).
  float* RowOf(uint64_t id);
  const float* RowOf(uint64_t id) const;

  /// Physical row of `id` in the combined space [0, hot_rows) hot,
  /// [hot_rows, hot_rows + shared_rows) shared — what the dirty sets and
  /// the update paths key on (the pointer falls out of the index).
  uint64_t RowIndexOf(uint64_t id) const {
    auto it = hot_index_.find(id);
    return it != hot_index_.end() ? it->second
                                  : hot_rows_ + hash_.Bounded(id, shared_rows_);
  }
  float* RowAt(uint64_t index) {
    return index < hot_rows_ ? hot_pool_.Row(index)
                             : shared_pool_.Row(index - hot_rows_);
  }
  void MarkRow(uint64_t index) {
    if (index < hot_rows_) {
      dirty_hot_.Mark(index);
    } else {
      dirty_shared_.Mark(index - hot_rows_);
    }
  }

  EmbeddingConfig config_;
  uint64_t hot_rows_;
  uint64_t shared_rows_;
  SeededHash hash_;
  std::unordered_map<uint64_t, uint32_t> hot_index_;  // feature -> hot row
  RowPool hot_pool_;     // hot_rows x dim, slab-pooled
  RowPool shared_pool_;  // shared_rows x dim, slab-pooled

  // Batch scratch, reused across calls.
  BatchDeduper dedup_;
  std::vector<float> grad_accum_;      // num_unique x dim
  std::vector<float*> row_scratch_;    // num_unique resolved rows
  std::vector<uint64_t> index_scratch_;  // num_unique combined-space rows

  // Incremental-snapshot tracking, one set per physical table.
  DirtyRowSet dirty_hot_;
  DirtyRowSet dirty_shared_;
};

}  // namespace cafe

#endif  // CAFE_EMBED_OFFLINE_SEPARATION_H_
