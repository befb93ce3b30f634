#include "embed/hash_embedding.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace cafe {

StatusOr<std::unique_ptr<HashEmbedding>> HashEmbedding::Create(
    const EmbeddingConfig& config) {
  CAFE_RETURN_IF_ERROR(config.Validate());
  const uint64_t budget_rows =
      config.BudgetBytes() / (config.dim * sizeof(float));
  if (budget_rows == 0) {
    return Status::ResourceExhausted(
        "hash embedding: budget below one row; lower the compression ratio");
  }
  const uint64_t rows = std::min<uint64_t>(budget_rows, config.total_features);
  return std::unique_ptr<HashEmbedding>(new HashEmbedding(config, rows));
}

HashEmbedding::HashEmbedding(const EmbeddingConfig& config, uint64_t num_rows)
    : config_(config),
      num_rows_(num_rows),
      hash_(config.seed ^ 0x9a55a550ULL) {
  pool_.Reset(num_rows, config.dim);
  Rng rng(config.seed);
  const float bound = embed_internal::InitBound(config.dim);
  for (uint64_t r = 0; r < num_rows; ++r) {
    float* row = pool_.Row(r);
    for (uint32_t k = 0; k < config.dim; ++k) {
      row[k] = rng.UniformFloat(-bound, bound);
    }
  }
}

void HashEmbedding::Lookup(uint64_t id, float* out) { LookupConst(id, out); }

void HashEmbedding::LookupConst(uint64_t id, float* out) const {
  std::memcpy(out, pool_.Row(RowOf(id)), config_.dim * sizeof(float));
}

void HashEmbedding::ApplyGradient(uint64_t id, const float* grad, float lr) {
  const uint64_t bucket = RowOf(id);
  if (dirty_.enabled()) dirty_.Mark(bucket);
  float* row = pool_.Row(bucket);
  for (uint32_t i = 0; i < config_.dim; ++i) row[i] -= lr * grad[i];
}

void HashEmbedding::MaybeSampleCollisions(const uint64_t* ids, size_t n) {
#ifndef CAFE_OBS_DISABLED
  constexpr size_t kCollisionSampleInterval = 64;
  if (n == 0 || (collision_sample_tick_++ % kCollisionSampleInterval) != 0) {
    return;
  }
  std::unordered_set<uint64_t> unique_ids;
  std::unordered_set<uint64_t> unique_buckets;
  unique_ids.reserve(n);
  unique_buckets.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    unique_ids.insert(ids[i]);
    unique_buckets.insert(RowOf(ids[i]));
  }
  const double rate =
      1.0 - static_cast<double>(unique_buckets.size()) /
                static_cast<double>(unique_ids.size());
  static obs::Gauge* const gauge = obs::MetricsRegistry::Global().GetGauge(
      "store.hash.sampled_collision_rate");
  gauge->Set(rate);
#else
  (void)ids;
  (void)n;
#endif
}

void HashEmbedding::LookupBatch(const uint64_t* ids, size_t n, float* out,
                                size_t out_stride) {
  Obs().RecordLookup(n);
  const uint32_t d = config_.dim;
  const size_t pf = PrefetchDistance();
  row_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) row_scratch_[i] = RowOf(ids[i]);
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      PrefetchRead(pool_.Row(row_scratch_[i + pf]));
    }
    simd::CopyRow(out + i * out_stride, pool_.Row(row_scratch_[i]), d);
  }
}

void HashEmbedding::LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                     size_t out_stride) const {
  // Scratch-free (concurrent serving callers): the row of the id
  // PrefetchDistance() ahead is hashed twice — once to prefetch, once to
  // copy — which is still far cheaper than a DRAM stall per row.
  const uint32_t d = config_.dim;
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      PrefetchRead(pool_.Row(RowOf(ids[i + pf])));
    }
    simd::CopyRow(out + i * out_stride, pool_.Row(RowOf(ids[i])), d);
  }
}

Status HashEmbedding::SaveState(io::Writer* writer) const {
  writer->WriteU64(num_rows_);
  writer->WriteU32(config_.dim);
  pool_.Save(writer);
  return Status::OK();
}

Status HashEmbedding::LoadState(io::Reader* reader) {
  uint64_t rows = 0;
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&rows));
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (rows != num_rows_ || d != config_.dim) {
    return Status::FailedPrecondition(
        "hash embedding: checkpoint sizing does not match this store");
  }
  return pool_.Load(reader, "hash table");
}

void HashEmbedding::ApplyGradientBatch(const uint64_t* ids, size_t n,
                                       const float* grads, size_t grad_stride,
                                       float lr, float clip) {
  // Stream order is preserved so colliding ids scatter their updates in the
  // same sequence as the scalar loop (bit-identical results); gradient
  // elements clamp on read straight from the strided tensor.
  Obs().RecordBackward(n, n);
  MaybeSampleCollisions(ids, n);
  const uint32_t d = config_.dim;
  const float bound = embed_internal::ClipBound(clip);
  const bool track = dirty_.enabled();
  const size_t pf = PrefetchDistance();
  row_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) row_scratch_[i] = RowOf(ids[i]);
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      PrefetchWrite(pool_.Row(row_scratch_[i + pf]));
    }
    if (track) dirty_.Mark(row_scratch_[i]);
    simd::AxpyClipNeg(pool_.Row(row_scratch_[i]), grads + i * grad_stride, d,
                      lr, bound);
  }
}

Status HashEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_.Enable(num_rows_);
  } else {
    dirty_.Disable();
  }
  return Status::OK();
}

Status HashEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_.enabled()) {
    return Status::FailedPrecondition(
        "hash embedding: dirty tracking is not enabled");
  }
  writer->WriteU32(config_.dim);
  const size_t delta_start = writer->size();
  const uint64_t delta_rows = dirty_.rows().size();
  delta_internal::WriteDirtyRowsAt(
      writer, dirty_, [this](uint64_t row) { return pool_.Row(row); },
      config_.dim);
  dirty_.Flush();
  Obs().RecordDelta(delta_rows, writer->size() - delta_start);
  return Status::OK();
}

Status HashEmbedding::LoadDelta(io::Reader* reader) {
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (d != config_.dim) {
    return Status::FailedPrecondition(
        "hash embedding: delta sizing does not match this store");
  }
  return delta_internal::ReadDirtyRowsAt(
      reader, [this](uint64_t row) { return pool_.Row(row); }, num_rows_,
      config_.dim, "hash table");
}

}  // namespace cafe
