#ifndef CAFE_EMBED_ADA_EMBEDDING_H_
#define CAFE_EMBED_ADA_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "embed/batch_dedup.h"
#include "embed/dirty_rows.h"
#include "embed/row_pool.h"
#include "embed/embedding_store.h"

namespace cafe {

/// AdaEmbed (Lai et al., OSDI 2023) reimplementation: the adaptive baseline.
///
/// Keeps a per-feature importance score (gradient-norm accumulator with
/// periodic decay) for ALL n features, plus a pool of embedding rows that is
/// periodically reallocated to the currently most-important features.
/// Features without a row embed to the zero vector (their former embeddings
/// are discarded, per the paper's description).
///
/// Memory accounting (paper §1.2/§5.2.1): the score (4B) and row index (4B)
/// arrays scale with n and count against the budget, which is why AdaEmbed
/// cannot reach large compression ratios — at dim 16 and CR > ~8 the
/// overhead alone exceeds the budget and Create() returns ResourceExhausted,
/// reproducing the truncated AdaEmbed curves.
///
/// Latency (paper §5.2.5): each reallocation scans all n scores (the
/// "sampling and checking" cost), which makes AdaEmbed the slowest method in
/// the Figure 13 bench, as in the paper.
class AdaEmbedding : public EmbeddingStore {
 public:
  struct Options {
    /// Iterations between reallocation scans.
    uint64_t realloc_interval = 1000;
    /// Multiplicative score decay applied at each reallocation.
    double score_decay = 0.9;
    /// Fraction of rows allowed to migrate per reallocation (the AdaEmbed
    /// paper bounds migration churn; 1.0 = unbounded).
    double max_migration_fraction = 0.1;
  };

  static StatusOr<std::unique_ptr<AdaEmbedding>> Create(
      const EmbeddingConfig& config, const Options& options);
  static StatusOr<std::unique_ptr<AdaEmbedding>> Create(
      const EmbeddingConfig& config) {
    return Create(config, Options{});
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
  void Tick() override;
  size_t MemoryBytes() const override;
  std::string Name() const override { return "ada"; }
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;

  uint64_t num_rows() const { return num_rows_; }
  uint64_t allocated_features() const { return allocated_count_; }

 private:
  AdaEmbedding(const EmbeddingConfig& config, const Options& options,
               uint64_t num_rows);

  /// Score update + cold-start row claim + SGD step for one feature; the
  /// scalar path calls it per occurrence (score_inc = the gradient's L2
  /// norm), the batched path once per unique id with the accumulated
  /// gradient and the summed per-occurrence norms.
  void ApplyOne(uint64_t id, const float* grad, float lr, double score_inc);

  /// Reassigns rows to the top-importance features (bounded churn).
  void Reallocate();

  EmbeddingConfig config_;
  Options options_;
  uint64_t num_rows_;
  uint64_t iteration_ = 0;
  uint64_t allocated_count_ = 0;
  Rng rng_;

  std::vector<float> scores_;      // n, importance per feature
  std::vector<int32_t> row_of_;    // n, -1 if feature has no row
  std::vector<uint64_t> owner_of_; // num_rows, feature owning each row
  std::vector<int32_t> free_rows_;
  RowPool pool_;                   // num_rows x dim, slab-pooled

  // Batch scratch, reused across calls.
  BatchDeduper dedup_;
  std::vector<float> grad_accum_;        // num_unique x dim
  std::vector<double> importance_accum_; // num_unique
  std::vector<int64_t> row_scratch_;

  // Incremental-snapshot tracking. AdaEmbed mutates TWO big spaces: the
  // per-feature score / row-index arrays (keyed by feature id) and the
  // row pool (keyed by physical row; a dirty row also carries its owner).
  // A reallocation decays EVERY score with one fixed coefficient, so the
  // delta ships the number of decay passes since the last cut and the
  // apply side replays the multiply deterministically — O(1) on the wire
  // instead of the whole score array.
  DirtyRowSet dirty_features_;
  DirtyRowSet dirty_rows_;
  uint64_t pending_score_decays_ = 0;

  // Registry handles (store.ada.*), bound in the constructor. Admissions =
  // cold-start claims + reallocation admits; evictions = reallocation
  // victims. Gauges track the pool occupancy after each maintenance tick.
  obs::Counter* obs_admissions_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Counter* obs_realloc_ticks_ = nullptr;
  obs::Gauge* obs_allocated_rows_ = nullptr;
};

}  // namespace cafe

#endif  // CAFE_EMBED_ADA_EMBEDDING_H_
