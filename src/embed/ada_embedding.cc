#include "embed/ada_embedding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace cafe {

StatusOr<std::unique_ptr<AdaEmbedding>> AdaEmbedding::Create(
    const EmbeddingConfig& config, const Options& options) {
  CAFE_RETURN_IF_ERROR(config.Validate());
  // Per-feature score (4B) + row index (4B) arrays are mandatory overhead.
  const uint64_t aux_bytes = config.total_features * 8ULL;
  const uint64_t budget = config.BudgetBytes();
  if (budget <= aux_bytes) {
    return Status::ResourceExhausted(
        "ada embedding: importance-score storage alone exceeds the budget "
        "(AdaEmbed cannot reach this compression ratio)");
  }
  const uint64_t row_bytes = config.dim * sizeof(float);
  const uint64_t num_rows =
      std::min<uint64_t>((budget - aux_bytes) / row_bytes,
                         config.total_features);
  if (num_rows == 0) {
    return Status::ResourceExhausted("ada embedding: no row fits the budget");
  }
  return std::unique_ptr<AdaEmbedding>(
      new AdaEmbedding(config, options, num_rows));
}

AdaEmbedding::AdaEmbedding(const EmbeddingConfig& config,
                           const Options& options, uint64_t num_rows)
    : config_(config),
      options_(options),
      num_rows_(num_rows),
      rng_(config.seed ^ 0xadaULL),
      scores_(config.total_features, 0.0f),
      row_of_(config.total_features, -1),
      owner_of_(num_rows, 0) {
  pool_.Reset(num_rows, config.dim);
  free_rows_.reserve(num_rows);
  for (uint64_t r = num_rows; r-- > 0;) {
    free_rows_.push_back(static_cast<int32_t>(r));
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs_admissions_ = registry.GetCounter("store.ada.admissions_total");
  obs_evictions_ = registry.GetCounter("store.ada.evictions_total");
  obs_realloc_ticks_ = registry.GetCounter("store.ada.realloc_ticks_total");
  obs_allocated_rows_ = registry.GetGauge("store.ada.allocated_rows");
}

void AdaEmbedding::Lookup(uint64_t id, float* out) { LookupConst(id, out); }

void AdaEmbedding::LookupConst(uint64_t id, float* out) const {
  CAFE_DCHECK(id < config_.total_features);
  const int32_t row = row_of_[id];
  if (row < 0) {
    std::memset(out, 0, config_.dim * sizeof(float));
    return;
  }
  std::memcpy(out, pool_.Row(static_cast<uint64_t>(row)),
              config_.dim * sizeof(float));
}

void AdaEmbedding::LookupBatch(const uint64_t* ids, size_t n, float* out,
                               size_t out_stride) {
  Obs().RecordLookup(n);
  const uint32_t d = config_.dim;
  row_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    CAFE_DCHECK(ids[i] < config_.total_features);
    row_scratch_[i] = row_of_[ids[i]];
  }
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      const int64_t ahead = row_scratch_[i + pf];
      if (ahead >= 0) PrefetchRead(pool_.Row(static_cast<uint64_t>(ahead)));
    }
    const int64_t row = row_scratch_[i];
    if (row < 0) {
      std::memset(out + i * out_stride, 0, d * sizeof(float));
    } else {
      simd::CopyRow(out + i * out_stride, pool_.Row(static_cast<uint64_t>(row)),
                    d);
    }
  }
}

void AdaEmbedding::LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                    size_t out_stride) const {
  // Scratch-free serving path: the row-index array is itself the prefetch
  // target one step ahead, then the row a second read resolves.
  const uint32_t d = config_.dim;
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      const int32_t ahead = row_of_[ids[i + pf]];
      if (ahead >= 0) PrefetchRead(pool_.Row(static_cast<uint64_t>(ahead)));
    }
    CAFE_DCHECK(ids[i] < config_.total_features);
    const int32_t row = row_of_[ids[i]];
    if (row < 0) {
      std::memset(out + i * out_stride, 0, d * sizeof(float));
    } else {
      simd::CopyRow(out + i * out_stride, pool_.Row(static_cast<uint64_t>(row)),
                    d);
    }
  }
}

using embed_internal::GradNorm;

void AdaEmbedding::ApplyGradientBatch(const uint64_t* ids, size_t n,
                                      const float* grads, size_t grad_stride,
                                      float lr, float clip) {
  // Dedup + accumulate straight from the model's strided gradient tensor,
  // clamping each element as it is read: the importance score advances once
  // per unique id by the summed per-occurrence clipped gradient norms
  // (identical to the scalar stream's total — mixed-sign gradients must not
  // cancel importance), and each allocated row takes one SGD step with the
  // accumulated clipped gradient.
  const uint32_t d = config_.dim;
  dedup_.Build(ids, n);
  Obs().RecordBackward(n, dedup_.num_unique());
  dedup_.AccumulateRows(grads, n, d, grad_stride, clip, &grad_accum_);
  dedup_.AccumulateNorms(grads, n, d, grad_stride, clip, &importance_accum_);
  const size_t num_unique = dedup_.num_unique();
  const size_t pf = PrefetchDistance();
  for (size_t u = 0; u < num_unique; ++u) {
    // Scatter-side prefetch: ApplyOne's SGD lands on row_of_[id], known up
    // front for already-allocated ids (a stale or -1 read ahead is just a
    // skipped hint — cold-start claims mid-stream cannot hurt correctness).
    if (u + pf < num_unique) {
      const int32_t ahead = row_of_[dedup_.unique_id(u + pf)];
      if (ahead >= 0) {
        PrefetchWrite(pool_.Row(static_cast<uint64_t>(ahead)));
      }
    }
    ApplyOne(dedup_.unique_id(u), grad_accum_.data() + u * d, lr,
             importance_accum_[u]);
  }
}

void AdaEmbedding::ApplyGradient(uint64_t id, const float* grad, float lr) {
  ApplyOne(id, grad, lr, GradNorm(grad, config_.dim));
}

void AdaEmbedding::ApplyOne(uint64_t id, const float* grad, float lr,
                            double score_inc) {
  CAFE_DCHECK(id < config_.total_features);
  if (dirty_features_.enabled()) dirty_features_.Mark(id);
  scores_[id] += static_cast<float>(score_inc);

  int32_t row = row_of_[id];
  if (row < 0) {
    // Cold start: claim a free row on first update so early training is not
    // starved while waiting for the first reallocation scan.
    if (free_rows_.empty()) return;
    row = free_rows_.back();
    free_rows_.pop_back();
    row_of_[id] = row;
    owner_of_[row] = id;
    ++allocated_count_;
    obs_admissions_->Add(1);
    float* fresh = pool_.Row(static_cast<uint64_t>(row));
    const float bound = embed_internal::InitBound(config_.dim);
    for (uint32_t i = 0; i < config_.dim; ++i) {
      fresh[i] = rng_.UniformFloat(-bound, bound);
    }
  }
  if (dirty_rows_.enabled()) dirty_rows_.Mark(static_cast<uint64_t>(row));
  simd::AxpyNeg(pool_.Row(static_cast<uint64_t>(row)), grad, config_.dim, lr);
}

void AdaEmbedding::Tick() {
  ++iteration_;
  if (iteration_ % options_.realloc_interval == 0) Reallocate();
  obs_allocated_rows_->Set(static_cast<double>(allocated_count_));
}

void AdaEmbedding::Reallocate() {
  obs_realloc_ticks_->Add(1);
  // Decay first so stale importance fades (AdaEmbed's recency weighting).
  // Every score changes by the same multiply, so the next delta ships the
  // pass count and the apply side replays it instead of the array.
  if (dirty_features_.enabled()) ++pending_score_decays_;
  for (float& s : scores_) {
    s *= static_cast<float>(options_.score_decay);
  }

  // Threshold = num_rows-th largest score. This full scan over all n
  // features is AdaEmbed's intrinsic latency cost.
  std::vector<float> sorted(scores_);
  const size_t k = static_cast<size_t>(
      std::min<uint64_t>(num_rows_, sorted.size()));
  std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end(),
                   std::greater<float>());
  const float threshold = sorted[k - 1];
  if (threshold <= 0.0f) return;  // nothing informative yet

  std::vector<uint64_t> admit;   // unallocated features at/above threshold
  std::vector<uint64_t> evict;   // allocated features at/below threshold
  for (uint64_t f = 0; f < scores_.size(); ++f) {
    if (row_of_[f] < 0 && scores_[f] >= threshold) {
      admit.push_back(f);
    } else if (row_of_[f] >= 0 && scores_[f] <= threshold) {
      evict.push_back(f);
    }
  }
  // Strongest candidates first / weakest victims first.
  std::sort(admit.begin(), admit.end(), [&](uint64_t a, uint64_t b) {
    return scores_[a] > scores_[b];
  });
  std::sort(evict.begin(), evict.end(), [&](uint64_t a, uint64_t b) {
    return scores_[a] < scores_[b];
  });

  const size_t churn_cap = static_cast<size_t>(
      std::max(1.0, options_.max_migration_fraction *
                        static_cast<double>(num_rows_)));
  size_t moved = 0;
  size_t evict_idx = 0;
  const float bound = embed_internal::InitBound(config_.dim);
  for (uint64_t f : admit) {
    if (moved >= churn_cap) break;
    int32_t row;
    if (!free_rows_.empty()) {
      row = free_rows_.back();
      free_rows_.pop_back();
      ++allocated_count_;
      obs_admissions_->Add(1);
    } else if (evict_idx < evict.size() &&
               scores_[evict[evict_idx]] < scores_[f]) {
      // Swap only on strict improvement so equal-importance features do
      // not thrash rows back and forth.
      const uint64_t victim = evict[evict_idx++];
      row = row_of_[victim];
      row_of_[victim] = -1;  // victim's embedding is discarded
      obs_evictions_->Add(1);
      obs_admissions_->Add(1);
      if (dirty_features_.enabled()) dirty_features_.Mark(victim);
    } else {
      break;
    }
    row_of_[f] = row;
    owner_of_[row] = f;
    if (dirty_features_.enabled()) {
      dirty_features_.Mark(f);
      dirty_rows_.Mark(static_cast<uint64_t>(row));
    }
    float* values = pool_.Row(static_cast<uint64_t>(row));
    for (uint32_t i = 0; i < config_.dim; ++i) {
      values[i] = rng_.UniformFloat(-bound, bound);
    }
    ++moved;
  }
}

Status AdaEmbedding::SaveState(io::Writer* writer) const {
  writer->WriteU64(config_.total_features);
  writer->WriteU64(num_rows_);
  writer->WriteU32(config_.dim);
  writer->WriteU64(iteration_);
  writer->WriteU64(allocated_count_);
  uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (uint64_t word : rng_state) writer->WriteU64(word);
  writer->WriteVec(scores_);
  writer->WriteVec(row_of_);
  writer->WriteVec(owner_of_);
  writer->WriteVec(free_rows_);
  pool_.Save(writer);
  return Status::OK();
}

Status AdaEmbedding::LoadState(io::Reader* reader) {
  uint64_t features = 0, rows = 0;
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&features));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&rows));
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (features != config_.total_features || rows != num_rows_ ||
      d != config_.dim) {
    return Status::FailedPrecondition(
        "ada embedding: checkpoint sizing does not match this store");
  }
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&iteration_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&allocated_count_));
  uint64_t rng_state[4];
  for (uint64_t& word : rng_state) CAFE_RETURN_IF_ERROR(reader->ReadU64(&word));
  rng_.LoadState(rng_state);
  CAFE_RETURN_IF_ERROR(
      reader->ReadVecExpected(&scores_, scores_.size(), "ada scores"));
  CAFE_RETURN_IF_ERROR(
      reader->ReadVecExpected(&row_of_, row_of_.size(), "ada row index"));
  CAFE_RETURN_IF_ERROR(
      reader->ReadVecExpected(&owner_of_, owner_of_.size(), "ada row owners"));
  CAFE_RETURN_IF_ERROR(reader->ReadVec(&free_rows_));
  if (free_rows_.size() > num_rows_) {
    return Status::FailedPrecondition("ada embedding: corrupt free-row list");
  }
  return pool_.Load(reader, "ada table");
}

Status AdaEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_features_.Enable(config_.total_features);
    dirty_rows_.Enable(num_rows_);
  } else {
    dirty_features_.Disable();
    dirty_rows_.Disable();
  }
  pending_score_decays_ = 0;
  return Status::OK();
}

Status AdaEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_features_.enabled()) {
    return Status::FailedPrecondition(
        "ada embedding: dirty tracking is not enabled");
  }
  // Guards + the O(1) state a delta always carries: counters, RNG, and the
  // free-row list (near-empty in steady state, bounded by the row pool).
  writer->WriteU32(config_.dim);
  writer->WriteU64(config_.total_features);
  writer->WriteU64(num_rows_);
  writer->WriteU64(iteration_);
  writer->WriteU64(allocated_count_);
  uint64_t rng_state[4];
  rng_.SaveState(rng_state);
  for (uint64_t word : rng_state) writer->WriteU64(word);
  writer->WriteVec(free_rows_);
  // Scores: realloc ticks decay every score by the same coefficient, so
  // the delta ships the pass COUNT (replayed deterministically on apply)
  // and only the dirty features' final scores — O(dirty) across a tick
  // instead of the whole array.
  writer->WriteU64(pending_score_decays_);
  // Per dirty feature: final score (overrides the replayed decay) + row
  // index (covers realloc victims, whose row index went to -1 without a
  // row write).
  writer->WriteU64(dirty_features_.rows().size());
  for (const uint64_t id : dirty_features_.rows()) {
    writer->WriteU64(id);
    writer->WriteF32(scores_[id]);
    writer->WriteI32(row_of_[id]);
  }
  // Per dirty row: owner + values (ownership changes exactly when the row's
  // contents are rewritten — cold-start claim or realloc re-init).
  const size_t delta_start = writer->size();
  writer->WriteU64(dirty_rows_.rows().size());
  for (const uint64_t row : dirty_rows_.rows()) {
    writer->WriteU64(row);
    writer->WriteU64(owner_of_[row]);
    writer->WriteBytes(pool_.Row(row), config_.dim * sizeof(float));
  }
  Obs().RecordDelta(dirty_rows_.rows().size(), writer->size() - delta_start);
  dirty_features_.Flush();
  dirty_rows_.Flush();
  pending_score_decays_ = 0;
  return Status::OK();
}

Status AdaEmbedding::LoadDelta(io::Reader* reader) {
  uint32_t d = 0;
  uint64_t features = 0, rows = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&features));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&rows));
  if (d != config_.dim || features != config_.total_features ||
      rows != num_rows_) {
    return Status::FailedPrecondition(
        "ada embedding: delta sizing does not match this store");
  }
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&iteration_));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&allocated_count_));
  uint64_t rng_state[4];
  for (uint64_t& word : rng_state) CAFE_RETURN_IF_ERROR(reader->ReadU64(&word));
  rng_.LoadState(rng_state);
  CAFE_RETURN_IF_ERROR(reader->ReadVec(&free_rows_));
  if (free_rows_.size() > num_rows_) {
    return Status::FailedPrecondition("ada embedding: corrupt free-row list");
  }
  uint64_t decay_passes = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&decay_passes));
  if (decay_passes > iteration_) {
    return Status::FailedPrecondition(
        "ada embedding: corrupt delta decay count");
  }
  // Replay the realloc-tick decays the source ran since the last delta.
  // Untouched features see the exact multiply sequence the source did;
  // dirty features are overwritten with their final value just below.
  for (uint64_t pass = 0; pass < decay_passes; ++pass) {
    for (float& s : scores_) s *= static_cast<float>(options_.score_decay);
  }
  uint64_t feature_count = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&feature_count));
  if (feature_count > config_.total_features) {
    return Status::FailedPrecondition("ada embedding: corrupt delta features");
  }
  for (uint64_t i = 0; i < feature_count; ++i) {
    uint64_t id = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&id));
    if (id >= config_.total_features) {
      return Status::FailedPrecondition(
          "ada embedding: delta feature out of range");
    }
    CAFE_RETURN_IF_ERROR(reader->ReadF32(&scores_[id]));
    CAFE_RETURN_IF_ERROR(reader->ReadI32(&row_of_[id]));
    if (row_of_[id] >= static_cast<int64_t>(num_rows_)) {
      return Status::FailedPrecondition(
          "ada embedding: delta row index out of range");
    }
  }
  uint64_t row_count = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&row_count));
  if (row_count > num_rows_) {
    return Status::FailedPrecondition("ada embedding: corrupt delta rows");
  }
  for (uint64_t i = 0; i < row_count; ++i) {
    uint64_t row = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&row));
    if (row >= num_rows_) {
      return Status::FailedPrecondition(
          "ada embedding: delta row out of range");
    }
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&owner_of_[row]));
    CAFE_RETURN_IF_ERROR(
        reader->ReadBytes(pool_.Row(row), config_.dim * sizeof(float)));
  }
  return Status::OK();
}

size_t AdaEmbedding::MemoryBytes() const {
  return pool_.MemoryBytes() + scores_.size() * sizeof(float) +
         row_of_.size() * sizeof(int32_t);
}

}  // namespace cafe
