#include "core/cafe_embedding.h"

#include <algorithm>
#include <limits>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/random.h"
#include "common/simd.h"
#include "obs/metrics.h"

namespace cafe {

StatusOr<std::unique_ptr<CafeEmbedding>> CafeEmbedding::Create(
    const CafeConfig& config) {
  auto plan = CafeMemoryPlan::Compute(config, sizeof(HotSketch::Slot));
  if (!plan.ok()) return plan.status();
  return std::unique_ptr<CafeEmbedding>(
      new CafeEmbedding(config, plan.value()));
}

CafeEmbedding::CafeEmbedding(const CafeConfig& config,
                             const CafeMemoryPlan& plan)
    : config_(config),
      plan_(plan),
      sketch_(std::move(HotSketch::Create(HotSketchConfig{
                            /*num_buckets=*/std::max<uint64_t>(
                                1, plan.hot_capacity),
                            /*slots_per_bucket=*/config.slots_per_bucket,
                            /*seed=*/config.embedding.seed ^ 0x5ce7cULL})
                            .value())),
      hash_a_(config.embedding.seed ^ 0xaaULL),
      hash_b_(config.embedding.seed ^ 0xbbULL),
      hot_table_(plan.hot_capacity * config.embedding.dim),
      shared_a_(plan.shared_rows_a * config.embedding.dim),
      shared_b_(plan.shared_rows_b * config.embedding.dim) {
  Rng rng(config.embedding.seed);
  const float bound = embed_internal::InitBound(config.embedding.dim);
  for (float& w : shared_a_) w = rng.UniformFloat(-bound, bound);
  if (config.use_multi_level) {
    // Table-B rows start at zero so a fresh medium feature's pooled
    // embedding equals its previous cold embedding (smooth class change).
    std::fill(shared_b_.begin(), shared_b_.end(), 0.0f);
  }
  free_rows_.reserve(plan.hot_capacity);
  for (uint64_t r = plan.hot_capacity; r-- > 0;) {
    free_rows_.push_back(static_cast<int32_t>(r));
  }
  row_prev_score_.assign(plan.hot_capacity, 0.0f);

  if (config.per_field_hot) {
    // Partition exclusive rows across fields proportionally to cardinality
    // (the ablation design; the default single pool lets importance decide).
    const uint64_t total = config.field_layout.total_features();
    const size_t fields = config.field_layout.num_fields();
    field_quota_.assign(fields, 0);
    field_used_.assign(fields, 0);
    uint64_t assigned = 0;
    for (size_t f = 0; f < fields; ++f) {
      field_quota_[f] = plan.hot_capacity *
                        config.field_layout.cardinality(f) / std::max<uint64_t>(total, 1);
      assigned += field_quota_[f];
    }
    // Distribute rounding leftovers round-robin.
    for (size_t f = 0; assigned < plan.hot_capacity; f = (f + 1) % fields) {
      ++field_quota_[f];
      ++assigned;
    }
  }

  if (config.auto_threshold) {
    // No promotions before the first maintenance tick: by then the sketch
    // has seen decay_interval iterations of importance mass, so the first
    // occupants of the exclusive table are already plausible hot features
    // rather than whichever ids arrived in the first batch.
    hot_threshold_ = std::numeric_limits<double>::infinity();
  } else {
    hot_threshold_ = config.hot_threshold;
  }
  medium_threshold_ = hot_threshold_ * config.medium_threshold_fraction;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = "store." + Name() + ".";
  obs_migrations_ = registry.GetCounter(prefix + "migrations_total");
  obs_demotions_ = registry.GetCounter(prefix + "demotions_total");
  obs_decay_ticks_ = registry.GetCounter(prefix + "decay_ticks_total");
  obs_lookup_hot_ = registry.GetCounter(prefix + "lookup_hot_total");
  obs_lookup_medium_ = registry.GetCounter(prefix + "lookup_medium_total");
  obs_lookup_cold_ = registry.GetCounter(prefix + "lookup_cold_total");
  obs_hot_occupancy_ = registry.GetGauge(prefix + "hot_occupancy");
  obs_victim_queue_depth_ = registry.GetGauge(prefix + "victim_queue_depth");
  obs_hot_threshold_ = registry.GetGauge(prefix + "hot_threshold");
}

void CafeEmbedding::SharedLookup(uint64_t id, bool medium, float* out) const {
  const uint32_t d = config_.embedding.dim;
  const float* a =
      shared_a_.data() + hash_a_.Bounded(id, plan_.shared_rows_a) * d;
  if (medium && plan_.shared_rows_b > 0) {
    const float* b =
        shared_b_.data() + hash_b_.Bounded(id, plan_.shared_rows_b) * d;
    for (uint32_t i = 0; i < d; ++i) out[i] = a[i] + b[i];
  } else {
    embed_internal::CopyRow(out, a, d);
  }
}

void CafeEmbedding::Lookup(uint64_t id, float* out) {
  LookupOne(id, out, /*occurrences=*/1);
}

void CafeEmbedding::LookupConst(uint64_t id, float* out) const {
  // The serving path: identical resolution to LookupOne but with the
  // hot/cold classification read-only and no lookup statistics — the
  // "frozen at snapshot time" semantics, and what makes concurrent serving
  // callers safe on a quiescent store.
  const HotSketch::Slot* slot = sketch_.Find(id);
  if (slot != nullptr && slot->payload >= 0) {
    embed_internal::CopyRow(
        out,
        hot_table_.data() +
            static_cast<size_t>(slot->payload) * config_.embedding.dim,
        config_.embedding.dim);
    return;
  }
  const bool medium = config_.use_multi_level && slot != nullptr &&
                      slot->GuaranteedScore() >= medium_threshold_;
  SharedLookup(id, medium, out);
}

void CafeEmbedding::LookupOne(uint64_t id, float* out, uint64_t occurrences) {
  const HotSketch::Slot* slot = sketch_.Find(id);
  if (slot != nullptr && slot->payload >= 0) {
    embed_internal::CopyRow(
        out,
        hot_table_.data() +
            static_cast<size_t>(slot->payload) * config_.embedding.dim,
        config_.embedding.dim);
    lookup_stats_.hot += occurrences;
    obs_lookup_hot_->Add(occurrences);
    return;
  }
  const bool medium = config_.use_multi_level && slot != nullptr &&
                      slot->GuaranteedScore() >= medium_threshold_;
  SharedLookup(id, medium, out);
  if (medium) {
    lookup_stats_.medium += occurrences;
    obs_lookup_medium_->Add(occurrences);
  } else {
    lookup_stats_.cold += occurrences;
    obs_lookup_cold_->Add(occurrences);
  }
}

void CafeEmbedding::ResolveUniqueRows(const BatchDeduper& dedup,
                                      std::vector<ResolvedRow>* rows,
                                      PathStats* stats) const {
  const uint32_t d = config_.embedding.dim;
  const size_t num_unique = dedup.num_unique();
  const std::vector<uint64_t>& unique = dedup.unique_ids();
  rows->resize(num_unique);
  for (size_t u = 0; u < num_unique; ++u) {
    if (u + PrefetchDistance() < num_unique) {
      sketch_.PrefetchBucket(unique[u + PrefetchDistance()]);
    }
    const uint64_t id = unique[u];
    const HotSketch::Slot* slot = sketch_.Find(id);
    ResolvedRow& resolved = (*rows)[u];
    if (slot != nullptr && slot->payload >= 0) {
      resolved.a = hot_table_.data() + static_cast<size_t>(slot->payload) * d;
      resolved.b = nullptr;
      if (stats != nullptr) stats->hot += dedup.count(u);
    } else {
      const bool medium = config_.use_multi_level && slot != nullptr &&
                          slot->GuaranteedScore() >= medium_threshold_;
      resolved.a =
          shared_a_.data() + hash_a_.Bounded(id, plan_.shared_rows_a) * d;
      resolved.b = medium && plan_.shared_rows_b > 0
                       ? shared_b_.data() +
                             hash_b_.Bounded(id, plan_.shared_rows_b) * d
                       : nullptr;
      if (stats != nullptr) {
        if (medium) {
          stats->medium += dedup.count(u);
        } else {
          stats->cold += dedup.count(u);
        }
      }
    }
  }
}

void CafeEmbedding::MaterializeUniqueRows(const BatchDeduper& dedup,
                                          const std::vector<ResolvedRow>& rows,
                                          size_t n, float* out,
                                          size_t out_stride) const {
  const uint32_t d = config_.embedding.dim;
  const size_t num_unique = dedup.num_unique();
  for (size_t u = 0; u < num_unique; ++u) {
    if (u + PrefetchDistance() < num_unique) {
      const ResolvedRow& ahead = rows[u + PrefetchDistance()];
      PrefetchRead(ahead.a);
      if (ahead.b != nullptr) PrefetchRead(ahead.b);
    }
    const ResolvedRow& resolved = rows[u];
    float* dst =
        out + static_cast<size_t>(dedup.first_occurrence(u)) * out_stride;
    if (resolved.b == nullptr) {
      simd::CopyRow(dst, resolved.a, d);
    } else {
      simd::AddRows(dst, resolved.a, resolved.b, d);
    }
  }
  dedup.ReplicateRows(out, n, d, out_stride);
}

void CafeEmbedding::LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                     size_t out_stride) const {
  // Concurrent-read path with the SAME two-pass dedup'd resolve as
  // LookupBatch (Resolve/MaterializeUniqueRows — one copy of the
  // resolution rules), minus statistics. The scratch that made the
  // training path unshareable lives in thread_local storage here — one
  // deduper + row buffer per serving worker — so any number of threads
  // still run lookups concurrently while skewed serving batches pay one
  // sketch probe per UNIQUE id instead of per occurrence. Classification
  // is read-only, so the output stays byte-identical to n scalar
  // LookupConst calls.
  struct ConstBatchScratch {
    BatchDeduper dedup;
    std::vector<ResolvedRow> rows;
  };
  static thread_local ConstBatchScratch scratch;
  if (!scratch.dedup.BuildAdaptive(ids, n)) {
    // Mostly-unique batch: direct scalar resolve, sketch bucket prefetched
    // ahead (same abandon heuristic as the training path).
    for (size_t i = 0; i < n; ++i) {
      if (i + PrefetchDistance() < n) {
        sketch_.PrefetchBucket(ids[i + PrefetchDistance()]);
      }
      LookupConst(ids[i], out + i * out_stride);
    }
    return;
  }
  ResolveUniqueRows(scratch.dedup, &scratch.rows, /*stats=*/nullptr);
  MaterializeUniqueRows(scratch.dedup, scratch.rows, n, out, out_stride);
}

void CafeEmbedding::LookupBatch(const uint64_t* ids, size_t n, float* out,
                                size_t out_stride) {
  Obs().RecordLookup(n);
  // Sketch probe + hot/cold classification once per unique id; duplicate
  // occurrences replicate the resolved row. Lookups are read-only, so the
  // output is byte-identical to n scalar calls either way — which is what
  // makes the dedup ADAPTIVE: skewed per-field batches (the common case
  // after the field-major consumer refactor) dedup heavily and take the
  // per-unique path, while mostly-unique batches abandon dedup after a
  // sampled prefix and run a direct devirtualized loop instead of paying
  // for a scratch table they would not reuse.
  if (!dedup_.BuildAdaptive(ids, n)) {
    for (size_t i = 0; i < n; ++i) {
      if (i + PrefetchDistance() < n) {
        sketch_.PrefetchBucket(ids[i + PrefetchDistance()]);
      }
      LookupOne(ids[i], out + i * out_stride, 1);
    }
    return;
  }

  // Resolve and materialize run as separate passes so the two DEPENDENT
  // memory accesses of a cafe lookup — sketch bucket, then embedding row —
  // never serialize: pass 1 probes buckets (prefetched PrefetchDistance()
  // ahead) and only records row addresses; pass 2 copies rows (again
  // prefetched PrefetchDistance() ahead). The scalar path eats the full
  // bucket-then-row latency chain on every call.
  const PathStats before = lookup_stats_;
  ResolveUniqueRows(dedup_, &row_ptr_scratch_, &lookup_stats_);
  obs_lookup_hot_->Add(lookup_stats_.hot - before.hot);
  obs_lookup_medium_->Add(lookup_stats_.medium - before.medium);
  obs_lookup_cold_->Add(lookup_stats_.cold - before.cold);
  MaterializeUniqueRows(dedup_, row_ptr_scratch_, n, out, out_stride);
}

CafeEmbedding::Path CafeEmbedding::ClassifyForTest(uint64_t id) const {
  const HotSketch::Slot* slot = sketch_.Find(id);
  if (slot != nullptr && slot->payload >= 0) return Path::kHot;
  if (config_.use_multi_level && slot != nullptr &&
      slot->GuaranteedScore() >= medium_threshold_) {
    return Path::kMedium;
  }
  return Path::kCold;
}

size_t CafeEmbedding::FieldQuotaIndex(uint64_t id) const {
  return config_.field_layout.FieldOf(id);
}

bool CafeEmbedding::TryPromote(uint64_t id, HotSketch::Slot* slot) {
  if (free_rows_.empty()) return false;
  size_t field = 0;
  if (config_.per_field_hot) {
    field = FieldQuotaIndex(id);
    if (field_used_[field] >= field_quota_[field]) return false;
  }
  const int32_t row = free_rows_.back();
  free_rows_.pop_back();
  if (config_.per_field_hot) ++field_used_[field];
  if (dirty_hot_.enabled()) dirty_hot_.Mark(static_cast<uint64_t>(row));
  // Migration initialization: copy the feature's current shared embedding
  // so its representation evolves smoothly across the promotion (§3.3).
  const bool was_medium = config_.use_multi_level &&
                          slot->GuaranteedScore() >= medium_threshold_;
  SharedLookup(id, was_medium,
               hot_table_.data() +
                   static_cast<size_t>(row) * config_.embedding.dim);
  slot->payload = row;
  ++migrations_;
  obs_migrations_->Add(1);
  return true;
}

void CafeEmbedding::FreeRow(int32_t row) {
  CAFE_DCHECK(row >= 0 &&
              static_cast<uint64_t>(row) < plan_.hot_capacity);
  free_rows_.push_back(row);
}

using embed_internal::GradNorm;

void CafeEmbedding::ApplyGradient(uint64_t id, const float* grad, float lr) {
  const double importance = config_.importance == ImportanceMetric::kFrequency
                                ? 1.0
                                : GradNorm(grad, config_.embedding.dim);
  ApplyGradientOne(id, grad, lr, importance);
}

void CafeEmbedding::ApplyGradientBatch(const uint64_t* ids, size_t n,
                                       const float* grads, size_t grad_stride,
                                       float lr, float clip) {
  // Per-batch sketch insertion (the paper's training-loop formulation): the
  // batch is deduplicated and the sketch advances ONCE per unique id, by
  // the id's total importance over the batch — occurrence count under the
  // frequency metric, summed per-occurrence clipped gradient norms under
  // the gradient-norm metric (summing norms rather than taking the norm of
  // the sum keeps scores identical to the scalar stream; mixed-sign
  // gradients must not cancel a hot feature's importance). Gradients
  // accumulate straight from the model's strided tensor with the clamp
  // fused into the read; promotion, demotion, and one SGD step with the
  // accumulated gradient then run per unique id.
  const uint32_t d = config_.embedding.dim;
  dedup_.Build(ids, n);
  Obs().RecordBackward(n, dedup_.num_unique());
  dedup_.AccumulateRows(grads, n, d, grad_stride, clip, &grad_accum_);
  const size_t num_unique = dedup_.num_unique();
  if (config_.importance == ImportanceMetric::kFrequency) {
    importance_accum_.resize(num_unique);
    for (size_t u = 0; u < num_unique; ++u) {
      importance_accum_[u] = static_cast<double>(dedup_.count(u));
    }
  } else {
    dedup_.AccumulateNorms(grads, n, d, grad_stride, clip,
                           &importance_accum_);
  }
  const std::vector<uint64_t>& unique = dedup_.unique_ids();
  for (size_t u = 0; u < num_unique; ++u) {
    if (u + PrefetchDistance() < num_unique) {
      sketch_.PrefetchBucket(unique[u + PrefetchDistance()]);
    }
    ApplyGradientOne(unique[u], grad_accum_.data() + u * d, lr,
                     importance_accum_[u]);
  }
  obs_victim_queue_depth_->Set(
      static_cast<double>(victim_queue_.size() - victim_idx_));
}

void CafeEmbedding::ApplyGradientOne(uint64_t id, const float* grad, float lr,
                                     double importance) {
  const uint32_t d = config_.embedding.dim;
  const bool track = dirty_hot_.enabled();
  HotSketch::InsertResult res = sketch_.Insert(id, importance);
  if (track && res.slot_index >= 0) MarkBucket(res.slot_index);
  if (res.evicted && res.evicted_payload >= 0) {
    // A hot feature lost its sketch slot: its exclusive row is recycled and
    // it silently degrades to the shared path (§3.3 exit-by-eviction).
    FreeRow(res.evicted_payload);
    if (config_.per_field_hot) {
      --field_used_[FieldQuotaIndex(res.evicted_key)];
    }
    ++demotions_;
    obs_demotions_->Add(1);
  }
  CAFE_DCHECK(res.slot_index >= 0);
  HotSketch::Slot* slot = &sketch_.slot_at(res.slot_index);

  // Promotion gates on the guaranteed score so SpaceSaving inheritance
  // inflation cannot push arbitrary tail features into the hot set. When
  // the table is full, a candidate takes the row of the hot feature with
  // the smallest last-interval growth, provided the candidate's guaranteed
  // accumulation clearly beats that growth — candidates survive in the
  // sketch only briefly, so their guaranteed score underestimates their
  // rate and a win is an honest win.
  if (slot->payload < 0 && slot->GuaranteedScore() >= hot_threshold_) {
    if (!TryPromote(id, slot) && !config_.per_field_hot) {
      while (victim_idx_ < victim_queue_.size()) {
        const auto [growth, victim_index] = victim_queue_[victim_idx_];
        if (victim_index == res.slot_index) break;  // cannot evict self
        HotSketch::Slot& victim = sketch_.slot_at(victim_index);
        if (victim.payload < 0) {
          ++victim_idx_;  // already demoted through another path
          continue;
        }
        if (slot->GuaranteedScore() >
            std::max(growth * config_.promote_margin, 1e-12)) {
          if (track) MarkBucket(victim_index);
          FreeRow(victim.payload);
          victim.payload = HotSketch::kNoPayload;
          ++demotions_;
          obs_demotions_->Add(1);
          ++victim_idx_;
          TryPromote(id, slot);
        }
        break;
      }
    }
  }

  if (slot->payload >= 0) {
    if (track) dirty_hot_.Mark(static_cast<uint64_t>(slot->payload));
    float* row =
        hot_table_.data() + static_cast<size_t>(slot->payload) * d;
    simd::AxpyNeg(row, grad, d, lr);
    return;
  }
  const uint64_t row_a = hash_a_.Bounded(id, plan_.shared_rows_a);
  float* a = shared_a_.data() + row_a * d;
  const bool medium = config_.use_multi_level &&
                      slot->GuaranteedScore() >= medium_threshold_;
  if (track) dirty_shared_a_.Mark(row_a);
  if (medium && plan_.shared_rows_b > 0) {
    // Pooled-by-sum embedding: the gradient flows to both rows unchanged.
    const uint64_t row_b = hash_b_.Bounded(id, plan_.shared_rows_b);
    if (track) dirty_shared_b_.Mark(row_b);
    float* b = shared_b_.data() + row_b * d;
    // The two pooled rows never alias (separate arrays), so the interleaved
    // update splits into two axpy passes with the same per-element rounding.
    simd::AxpyNeg(a, grad, d, lr);
    simd::AxpyNeg(b, grad, d, lr);
  } else {
    simd::AxpyNeg(a, grad, d, lr);
  }
}

void CafeEmbedding::RefreshVictimQueue() {
  victim_queue_.clear();
  victim_idx_ = 0;
  const size_t capacity = sketch_.capacity();
  for (size_t i = 0; i < capacity; ++i) {
    const HotSketch::Slot& s = sketch_.slots()[i];
    if (s.key == HotSketch::kEmptyKey || s.payload < 0) continue;
    const double growth =
        static_cast<double>(s.score) - row_prev_score_[s.payload];
    victim_queue_.emplace_back(growth, static_cast<int64_t>(i));
  }
  std::sort(victim_queue_.begin(), victim_queue_.end());
  // Snapshot scores for the next interval's growth measurement.
  for (size_t i = 0; i < capacity; ++i) {
    const HotSketch::Slot& s = sketch_.slots()[i];
    if (s.key != HotSketch::kEmptyKey && s.payload >= 0) {
      row_prev_score_[s.payload] = s.score;
    }
  }
}

void CafeEmbedding::RefreshThresholds() {
  // Auto mode: keep the exclusive table saturated — the threshold is the
  // score of the (hot capacity)-th hottest sketch entry.
  std::vector<double> scores;
  scores.reserve(sketch_.capacity());
  for (const HotSketch::Slot& s : sketch_.slots()) {
    if (s.key != HotSketch::kEmptyKey) {
      scores.push_back(s.GuaranteedScore());
    }
  }
  if (scores.size() <= plan_.hot_capacity || plan_.hot_capacity == 0) {
    hot_threshold_ = 1e-12;
  } else {
    std::nth_element(scores.begin(), scores.begin() + (plan_.hot_capacity - 1),
                     scores.end(), std::greater<double>());
    hot_threshold_ = scores[plan_.hot_capacity - 1];
  }
  medium_threshold_ = hot_threshold_ * config_.medium_threshold_fraction;
}

void CafeEmbedding::Tick() {
  ++iteration_;
  if (iteration_ % config_.decay_interval != 0) return;

  // Measure per-row growth over the closing interval BEFORE decay so the
  // victim queue reflects pure traffic, then decay and refresh thresholds.
  // Decay multiplies every slot by one fixed coefficient, so the next
  // delta ships a replay count instead of the slot array; the maintenance
  // pass still rewrites the victim queue + growth snapshot wholesale
  // (O(hot), rebuilt from mid-interval state a replica cannot reconstruct).
  if (dirty_buckets_.enabled()) {
    ++pending_decay_ticks_;
    maintenance_dirty_ = true;
  }
  RefreshVictimQueue();
  sketch_.Decay(config_.decay_coefficient);
  if (config_.auto_threshold) {
    RefreshThresholds();
  } else {
    medium_threshold_ = hot_threshold_ * config_.medium_threshold_fraction;
  }

  // Demotion scan: hot features whose decayed score fell below the
  // threshold give their exclusive row back; the shared row serves again
  // (the paper discards the exclusive embedding on demotion). Auto mode
  // applies hysteresis so boundary features do not thrash.
  const double demote_below =
      config_.auto_threshold
          ? hot_threshold_ * config_.demotion_hysteresis
          : hot_threshold_;
  const size_t capacity = sketch_.capacity();
  for (size_t i = 0; i < capacity; ++i) {
    HotSketch::Slot& s = sketch_.slot_at(i);
    if (s.key != HotSketch::kEmptyKey && s.payload >= 0 &&
        s.GuaranteedScore() < demote_below) {
      if (dirty_buckets_.enabled()) MarkBucket(static_cast<int64_t>(i));
      FreeRow(s.payload);
      if (config_.per_field_hot) --field_used_[FieldQuotaIndex(s.key)];
      s.payload = HotSketch::kNoPayload;
      ++demotions_;
      obs_demotions_->Add(1);
    }
  }
  // Re-snapshot after decay so next interval's growth is decay-consistent.
  for (size_t i = 0; i < capacity; ++i) {
    const HotSketch::Slot& s = sketch_.slots()[i];
    if (s.key != HotSketch::kEmptyKey && s.payload >= 0) {
      row_prev_score_[s.payload] = s.score;
    }
  }

  obs_decay_ticks_->Add(1);
  obs_hot_occupancy_->Set(static_cast<double>(hot_count()));
  obs_victim_queue_depth_->Set(
      static_cast<double>(victim_queue_.size() - victim_idx_));
  obs_hot_threshold_->Set(hot_threshold_);
}

size_t CafeEmbedding::MemoryBytes() const {
  return sketch_.MemoryBytes() +
         (hot_table_.size() + shared_a_.size() + shared_b_.size()) *
             sizeof(float);
}

Status CafeEmbedding::SaveState(io::Writer* writer) const {
  // Sizing guard (derived from config + plan; re-checked on load).
  writer->WriteU32(config_.embedding.dim);
  writer->WriteU64(plan_.hot_capacity);
  writer->WriteU64(plan_.shared_rows_a);
  writer->WriteU64(plan_.shared_rows_b);
  writer->WriteU64(sketch_.capacity());
  writer->WriteBool(config_.use_multi_level);
  writer->WriteBool(config_.per_field_hot);

  // The complete migration machinery, not just the tables: thresholds, the
  // per-interval growth snapshot, and the victim queue, so a restored store
  // keeps promoting/demoting exactly like the uninterrupted one.
  writer->WriteVec(sketch_.slots());
  writer->WriteVec(hot_table_);
  writer->WriteVec(shared_a_);
  writer->WriteVec(shared_b_);
  writer->WriteVec(free_rows_);
  writer->WriteVec(field_used_);
  writer->WriteF64(hot_threshold_);
  writer->WriteF64(medium_threshold_);
  writer->WriteVec(row_prev_score_);
  writer->WriteU64(victim_queue_.size());
  for (const auto& [growth, slot_index] : victim_queue_) {
    writer->WriteF64(growth);
    writer->WriteI64(slot_index);
  }
  writer->WriteU64(victim_idx_);
  writer->WriteU64(iteration_);
  writer->WriteU64(migrations_);
  writer->WriteU64(demotions_);
  writer->WriteU64(lookup_stats_.hot);
  writer->WriteU64(lookup_stats_.medium);
  writer->WriteU64(lookup_stats_.cold);
  return Status::OK();
}

Status CafeEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_hot_.Enable(plan_.hot_capacity);
    dirty_shared_a_.Enable(plan_.shared_rows_a);
    dirty_shared_b_.Enable(plan_.shared_rows_b);
    dirty_buckets_.Enable(sketch_.num_buckets());
  } else {
    dirty_hot_.Disable();
    dirty_shared_a_.Disable();
    dirty_shared_b_.Disable();
    dirty_buckets_.Disable();
  }
  pending_decay_ticks_ = 0;
  maintenance_dirty_ = false;
  return Status::OK();
}

Status CafeEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_hot_.enabled()) {
    return Status::FailedPrecondition(
        "cafe embedding: dirty tracking is not enabled");
  }
  const uint32_t c = config_.slots_per_bucket;
  // Sizing guard, as in SaveState.
  writer->WriteU32(config_.embedding.dim);
  writer->WriteU64(plan_.hot_capacity);
  writer->WriteU64(plan_.shared_rows_a);
  writer->WriteU64(plan_.shared_rows_b);
  writer->WriteU64(sketch_.capacity());

  // O(1)/O(hot) machinery every delta carries: counters, thresholds, the
  // free-row list and per-field usage.
  writer->WriteU64(iteration_);
  writer->WriteU64(migrations_);
  writer->WriteU64(demotions_);
  writer->WriteU64(lookup_stats_.hot);
  writer->WriteU64(lookup_stats_.medium);
  writer->WriteU64(lookup_stats_.cold);
  writer->WriteU64(victim_idx_);
  writer->WriteF64(hot_threshold_);
  writer->WriteF64(medium_threshold_);
  writer->WriteVec(free_rows_);
  writer->WriteVec(field_used_);

  // Maintenance state: rewritten wholesale only at decay ticks.
  writer->WriteBool(maintenance_dirty_);
  if (maintenance_dirty_) {
    writer->WriteVec(row_prev_score_);
    writer->WriteU64(victim_queue_.size());
    for (const auto& [growth, slot_index] : victim_queue_) {
      writer->WriteF64(growth);
      writer->WriteI64(slot_index);
    }
  }

  // Sketch: decay ticks ship as a replay count (the apply side re-runs
  // Decay with the configured coefficient), then dirty buckets only (one
  // Insert touches one bucket, so this scales with unique ids).
  writer->WriteU64(pending_decay_ticks_);
  writer->WriteU64(dirty_buckets_.rows().size());
  for (const uint64_t bucket : dirty_buckets_.rows()) {
    writer->WriteU64(bucket);
    writer->WriteBytes(sketch_.slots().data() + bucket * c,
                       c * sizeof(HotSketch::Slot));
  }

  // The embedding tables, dirty rows only.
  const uint32_t d = config_.embedding.dim;
  const size_t delta_start = writer->size();
  delta_internal::WriteDirtyRows(writer, dirty_hot_, hot_table_.data(), d);
  delta_internal::WriteDirtyRows(writer, dirty_shared_a_, shared_a_.data(), d);
  delta_internal::WriteDirtyRows(writer, dirty_shared_b_, shared_b_.data(), d);
  Obs().RecordDelta(dirty_hot_.rows().size() + dirty_shared_a_.rows().size() +
                        dirty_shared_b_.rows().size(),
                    writer->size() - delta_start);

  dirty_hot_.Flush();
  dirty_shared_a_.Flush();
  dirty_shared_b_.Flush();
  dirty_buckets_.Flush();
  pending_decay_ticks_ = 0;
  maintenance_dirty_ = false;
  return Status::OK();
}

Status CafeEmbedding::LoadDelta(io::Reader* reader) {
  const uint32_t c = config_.slots_per_bucket;
  uint32_t d = 0;
  uint64_t hot_capacity = 0, rows_a = 0, rows_b = 0, sketch_capacity = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&hot_capacity));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&rows_a));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&rows_b));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&sketch_capacity));
  if (d != config_.embedding.dim || hot_capacity != plan_.hot_capacity ||
      rows_a != plan_.shared_rows_a || rows_b != plan_.shared_rows_b ||
      sketch_capacity != sketch_.capacity()) {
    return Status::FailedPrecondition(
        "cafe embedding: delta sizing does not match this store");
  }

  CAFE_RETURN_IF_ERROR(reader->ReadU64(&iteration_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&migrations_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&demotions_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&lookup_stats_.hot));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&lookup_stats_.medium));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&lookup_stats_.cold));
  uint64_t victim_idx = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&victim_idx));
  victim_idx_ = static_cast<size_t>(victim_idx);
  CAFE_RETURN_IF_ERROR(reader->ReadF64(&hot_threshold_));
  CAFE_RETURN_IF_ERROR(reader->ReadF64(&medium_threshold_));
  CAFE_RETURN_IF_ERROR(reader->ReadVec(&free_rows_));
  if (free_rows_.size() > plan_.hot_capacity) {
    return Status::FailedPrecondition("cafe embedding: corrupt free-row list");
  }
  CAFE_RETURN_IF_ERROR(reader->ReadVecExpected(&field_used_, field_used_.size(),
                                               "per-field usage"));

  bool maintenance = false;
  CAFE_RETURN_IF_ERROR(reader->ReadBool(&maintenance));
  if (maintenance) {
    CAFE_RETURN_IF_ERROR(reader->ReadVecExpected(
        &row_prev_score_, row_prev_score_.size(), "row score snapshot"));
    uint64_t queue_size = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&queue_size));
    if (queue_size > sketch_.capacity()) {
      return Status::FailedPrecondition(
          "cafe embedding: corrupt victim queue size");
    }
    victim_queue_.resize(queue_size);
    for (auto& [growth, slot_index] : victim_queue_) {
      CAFE_RETURN_IF_ERROR(reader->ReadF64(&growth));
      CAFE_RETURN_IF_ERROR(reader->ReadI64(&slot_index));
      if (slot_index < 0 ||
          static_cast<uint64_t>(slot_index) >= sketch_.capacity()) {
        return Status::FailedPrecondition(
            "cafe embedding: victim queue slot index out of range");
      }
    }
  }

  uint64_t decay_ticks = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&decay_ticks));
  if (decay_ticks > iteration_) {
    return Status::FailedPrecondition(
        "cafe embedding: corrupt delta decay count");
  }
  // Replay the decay ticks the source ran since the last delta. Untouched
  // buckets see the exact multiply sequence the source did; dirty buckets
  // are overwritten with their final bytes just below.
  for (uint64_t tick = 0; tick < decay_ticks; ++tick) {
    sketch_.Decay(config_.decay_coefficient);
  }
  uint64_t bucket_count = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&bucket_count));
  if (bucket_count > sketch_.num_buckets()) {
    return Status::FailedPrecondition(
        "cafe embedding: corrupt delta bucket count");
  }
  for (uint64_t i = 0; i < bucket_count; ++i) {
    uint64_t bucket = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&bucket));
    if (bucket >= sketch_.num_buckets()) {
      return Status::FailedPrecondition(
          "cafe embedding: delta bucket out of range");
    }
    CAFE_RETURN_IF_ERROR(reader->ReadBytes(&sketch_.slot_at(bucket * c),
                                           c * sizeof(HotSketch::Slot)));
  }

  CAFE_RETURN_IF_ERROR(delta_internal::ReadDirtyRows(
      reader, hot_table_.data(), plan_.hot_capacity, d, "hot table"));
  CAFE_RETURN_IF_ERROR(delta_internal::ReadDirtyRows(
      reader, shared_a_.data(), plan_.shared_rows_a, d, "shared table A"));
  return delta_internal::ReadDirtyRows(reader, shared_b_.data(),
                                       plan_.shared_rows_b, d,
                                       "shared table B");
}

Status CafeEmbedding::LoadState(io::Reader* reader) {
  uint32_t d = 0;
  uint64_t hot_capacity = 0, rows_a = 0, rows_b = 0, sketch_capacity = 0;
  bool multi_level = false, per_field = false;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&hot_capacity));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&rows_a));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&rows_b));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&sketch_capacity));
  CAFE_RETURN_IF_ERROR(reader->ReadBool(&multi_level));
  CAFE_RETURN_IF_ERROR(reader->ReadBool(&per_field));
  if (d != config_.embedding.dim || hot_capacity != plan_.hot_capacity ||
      rows_a != plan_.shared_rows_a || rows_b != plan_.shared_rows_b ||
      sketch_capacity != sketch_.capacity() ||
      multi_level != config_.use_multi_level ||
      per_field != config_.per_field_hot) {
    return Status::FailedPrecondition(
        "cafe embedding: checkpoint sizing does not match this store");
  }

  std::vector<HotSketch::Slot> slots;
  CAFE_RETURN_IF_ERROR(reader->ReadVec(&slots));
  CAFE_RETURN_IF_ERROR(sketch_.RestoreSlots(std::move(slots)));
  CAFE_RETURN_IF_ERROR(
      reader->ReadVecExpected(&hot_table_, hot_table_.size(), "hot table"));
  CAFE_RETURN_IF_ERROR(
      reader->ReadVecExpected(&shared_a_, shared_a_.size(), "shared table A"));
  CAFE_RETURN_IF_ERROR(
      reader->ReadVecExpected(&shared_b_, shared_b_.size(), "shared table B"));
  CAFE_RETURN_IF_ERROR(reader->ReadVec(&free_rows_));
  if (free_rows_.size() > plan_.hot_capacity) {
    return Status::FailedPrecondition("cafe embedding: corrupt free-row list");
  }
  CAFE_RETURN_IF_ERROR(reader->ReadVecExpected(&field_used_, field_used_.size(),
                                               "per-field usage"));
  CAFE_RETURN_IF_ERROR(reader->ReadF64(&hot_threshold_));
  CAFE_RETURN_IF_ERROR(reader->ReadF64(&medium_threshold_));
  CAFE_RETURN_IF_ERROR(reader->ReadVecExpected(
      &row_prev_score_, row_prev_score_.size(), "row score snapshot"));
  uint64_t queue_size = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&queue_size));
  if (queue_size > sketch_.capacity()) {
    return Status::FailedPrecondition(
        "cafe embedding: corrupt victim queue size");
  }
  victim_queue_.resize(queue_size);
  for (auto& [growth, slot_index] : victim_queue_) {
    CAFE_RETURN_IF_ERROR(reader->ReadF64(&growth));
    CAFE_RETURN_IF_ERROR(reader->ReadI64(&slot_index));
    if (slot_index < 0 ||
        static_cast<uint64_t>(slot_index) >= sketch_.capacity()) {
      return Status::FailedPrecondition(
          "cafe embedding: victim queue slot index out of range");
    }
  }
  uint64_t victim_idx = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&victim_idx));
  victim_idx_ = static_cast<size_t>(victim_idx);
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&iteration_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&migrations_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&demotions_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&lookup_stats_.hot));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&lookup_stats_.medium));
  return reader->ReadU64(&lookup_stats_.cold);
}

}  // namespace cafe
