#ifndef CAFE_CORE_CAFE_EMBEDDING_H_
#define CAFE_CORE_CAFE_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/hash.h"
#include "core/cafe_config.h"
#include "embed/batch_dedup.h"
#include "embed/dirty_rows.h"
#include "embed/embedding_store.h"
#include "sketch/hot_sketch.h"

namespace cafe {

/// CAFE: the paper's Compact, Adaptive, Fast embedding layer (§3).
///
/// A HotSketch tracks per-feature importance (gradient L2 norms). Features
/// whose score exceeds the hot threshold own an exclusive row in the hot
/// table (the sketch slot's payload stores the row index, standing in for
/// the paper's pointer); everything else shares rows of hash table A, and —
/// with multi-level enabled (§3.4) — features above the medium threshold
/// additionally pool a row from hash table B.
///
/// Migration (§3.3):
///  - promotion happens inline in ApplyGradient when a feature's score
///    crosses the hot threshold: its current shared embedding is copied into
///    the claimed exclusive row so learning stays smooth;
///  - demotion happens when scores fall below the threshold after periodic
///    decay (Tick) or when the sketch evicts the feature; the exclusive row
///    is simply discarded and the shared row serves again.
///
/// Thresholds: fixed (paper Figure 15(b) sweep) or auto-derived at each
/// maintenance tick so the hot table stays saturated (default).
class CafeEmbedding : public EmbeddingStore {
 public:
  /// Forward-path classification, exposed for stats and tests.
  enum class Path { kHot, kMedium, kCold };

  struct PathStats {
    uint64_t hot = 0;
    uint64_t medium = 0;
    uint64_t cold = 0;
  };

  static StatusOr<std::unique_ptr<CafeEmbedding>> Create(
      const CafeConfig& config);

  uint32_t dim() const override { return config_.embedding.dim; }
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
  std::string Name() const override {
    return config_.use_multi_level ? "cafe-ml" : "cafe";
  }
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;

  /// Classification a lookup of `id` would take right now.
  Path ClassifyForTest(uint64_t id) const;

  const CafeConfig& config() const { return config_; }
  const CafeMemoryPlan& plan() const { return plan_; }
  const HotSketch& sketch() const { return sketch_; }
  double hot_threshold() const { return hot_threshold_; }
  double medium_threshold() const { return medium_threshold_; }
  /// Currently allocated exclusive rows.
  uint64_t hot_count() const {
    return plan_.hot_capacity - free_rows_.size();
  }
  uint64_t migrations() const { return migrations_; }
  uint64_t demotions() const { return demotions_; }
  const PathStats& lookup_stats() const { return lookup_stats_; }
  void ResetLookupStats() { lookup_stats_ = PathStats{}; }

 private:
  CafeEmbedding(const CafeConfig& config, const CafeMemoryPlan& plan);

  /// One forward resolution (sketch probe + path classification + row
  /// copy), counted as `occurrences` lookups in the stats. The scalar path
  /// calls it per id, the batched path once per unique id.
  void LookupOne(uint64_t id, float* out, uint64_t occurrences);

  /// Sketch insertion, promotion/demotion, and the SGD step for one feature
  /// whose batch importance is `importance` (gradient-norm metric: L2 norm
  /// of `grad`; frequency metric: number of occurrences).
  void ApplyGradientOne(uint64_t id, const float* grad, float lr,
                        double importance);

  /// Writes the shared-table representation of `id` (used for cold/medium
  /// lookups and as migration initialization).
  void SharedLookup(uint64_t id, bool medium, float* out) const;

  struct ResolvedRow;

  /// Pass 1 of the dedup'd batch lookup: probes the sketch once per unique
  /// id of `dedup` (bucket-prefetched) and records each id's resolved row
  /// pointer(s) in `rows`. Classification is read-only; `stats` (when not
  /// null — the training path) is advanced by the occurrence counts. The
  /// ONE copy of CAFE's resolution rules shared by LookupBatch and
  /// LookupBatchConst, so the serving path can never drift from the
  /// training path.
  void ResolveUniqueRows(const BatchDeduper& dedup,
                         std::vector<ResolvedRow>* rows,
                         PathStats* stats) const;

  /// Pass 2: materializes each unique id's row(s) at its first occurrence
  /// in `out` (row-prefetched) and replicates to duplicate occurrences.
  void MaterializeUniqueRows(const BatchDeduper& dedup,
                             const std::vector<ResolvedRow>& rows, size_t n,
                             float* out, size_t out_stride) const;

  /// Tries to claim an exclusive row for the feature in `slot`; returns
  /// true and installs the payload on success.
  bool TryPromote(uint64_t id, HotSketch::Slot* slot);

  void FreeRow(int32_t row);

  /// Refreshes hot/medium thresholds from current sketch contents
  /// (auto-threshold mode).
  void RefreshThresholds();

  /// Rebuilds the swap-victim queue from per-interval hot-slot growth.
  void RefreshVictimQueue();

  size_t FieldQuotaIndex(uint64_t id) const;

  CafeConfig config_;
  CafeMemoryPlan plan_;
  HotSketch sketch_;
  SeededHash hash_a_;
  SeededHash hash_b_;

  std::vector<float> hot_table_;    // hot_capacity x dim
  std::vector<float> shared_a_;     // shared_rows_a x dim
  std::vector<float> shared_b_;     // shared_rows_b x dim (multi-level)
  std::vector<int32_t> free_rows_;

  // Per-field exclusive-row quotas (Figure 15(d) ablation); empty when
  // per_field_hot is off.
  std::vector<uint64_t> field_quota_;
  std::vector<uint64_t> field_used_;

  double hot_threshold_ = 0.0;
  double medium_threshold_ = 0.0;
  // Per-row sketch score at the last maintenance tick. Hot slots are
  // protected from eviction, so (score - prev) over one interval is exactly
  // the feature's own importance traffic — the honest baseline candidates
  // must beat to take the row.
  std::vector<float> row_prev_score_;
  // Hot slots ordered by last-interval growth (ascending): the swap-victim
  // queue for competitive promotion. Rebuilt at every tick.
  std::vector<std::pair<double, int64_t>> victim_queue_;
  size_t victim_idx_ = 0;
  uint64_t iteration_ = 0;
  uint64_t migrations_ = 0;
  uint64_t demotions_ = 0;
  PathStats lookup_stats_;

  // Batch scratch, reused across calls: sketch probes and promotion checks
  // run once per unique id in the batch.
  BatchDeduper dedup_;
  std::vector<float> grad_accum_;        // num_unique x dim
  std::vector<double> importance_accum_; // num_unique
  /// A unique id's resolved embedding source: one row (b == nullptr) or a
  /// medium feature's pooled pair of rows.
  struct ResolvedRow {
    const float* a = nullptr;
    const float* b = nullptr;
  };
  std::vector<ResolvedRow> row_ptr_scratch_;  // num_unique

  /// Marks the bucket owning sketch slot `slot_index` dirty.
  void MarkBucket(int64_t slot_index) {
    dirty_buckets_.Mark(static_cast<uint64_t>(slot_index) /
                        config_.slots_per_bucket);
  }

  // Incremental-snapshot tracking. Big arrays are row-keyed: the three
  // embedding tables plus the sketch (keyed by BUCKET — one Insert touches
  // one bucket, so dirty buckets scale with unique ids like dirty rows).
  // A maintenance tick decays every sketch slot and rebuilds the victim
  // queue / growth snapshot wholesale, so it flags those sections fully
  // dirty for the next delta; the remaining machinery (counters,
  // thresholds, free list, per-field usage) is O(hot) and travels with
  // every delta.
  DirtyRowSet dirty_hot_;
  DirtyRowSet dirty_shared_a_;
  DirtyRowSet dirty_shared_b_;
  DirtyRowSet dirty_buckets_;
  /// Decay ticks since the last SaveDelta. Decay multiplies every slot by
  /// one fixed coefficient, so the delta ships this count and the apply
  /// side replays sketch_.Decay() deterministically — O(1) on the wire
  /// instead of the whole slot array.
  uint64_t pending_decay_ticks_ = 0;
  bool maintenance_dirty_ = false;

  // Registry mirrors (store.cafe.* / store.cafe-ml.*), bound in the
  // constructor. The serialized counters above (migrations_, demotions_,
  // lookup_stats_) stay members because SaveState/SaveDelta carry them and
  // parity tests assert byte-identical output; the registry handles are
  // additive process-wide mirrors that survive ResetLookupStats and
  // snapshot cuts.
  obs::Counter* obs_migrations_ = nullptr;
  obs::Counter* obs_demotions_ = nullptr;
  obs::Counter* obs_decay_ticks_ = nullptr;
  obs::Counter* obs_lookup_hot_ = nullptr;
  obs::Counter* obs_lookup_medium_ = nullptr;
  obs::Counter* obs_lookup_cold_ = nullptr;
  obs::Gauge* obs_hot_occupancy_ = nullptr;
  obs::Gauge* obs_victim_queue_depth_ = nullptr;
  obs::Gauge* obs_hot_threshold_ = nullptr;
};

}  // namespace cafe

#endif  // CAFE_CORE_CAFE_EMBEDDING_H_
