#include "embed/full_embedding.h"

#include <cstring>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace cafe {

StatusOr<std::unique_ptr<FullEmbedding>> FullEmbedding::Create(
    const EmbeddingConfig& config) {
  CAFE_RETURN_IF_ERROR(config.Validate());
  return std::unique_ptr<FullEmbedding>(new FullEmbedding(config));
}

FullEmbedding::FullEmbedding(const EmbeddingConfig& config)
    : config_(config), table_(config.total_features * config.dim) {
  Rng rng(config.seed);
  const float bound = embed_internal::InitBound(config.dim);
  for (float& w : table_) w = rng.UniformFloat(-bound, bound);
}

void FullEmbedding::Lookup(uint64_t id, float* out) {
  LookupConst(id, out);
}

void FullEmbedding::LookupConst(uint64_t id, float* out) const {
  CAFE_DCHECK(id < config_.total_features);
  std::memcpy(out, table_.data() + id * config_.dim,
              config_.dim * sizeof(float));
}

void FullEmbedding::ApplyGradient(uint64_t id, const float* grad, float lr) {
  CAFE_DCHECK(id < config_.total_features);
  if (dirty_.enabled()) dirty_.Mark(id);
  float* row = table_.data() + id * config_.dim;
  for (uint32_t i = 0; i < config_.dim; ++i) row[i] -= lr * grad[i];
}

void FullEmbedding::LookupBatch(const uint64_t* ids, size_t n, float* out,
                                size_t out_stride) {
  Obs().RecordLookup(n);
  LookupBatchConst(ids, n, out, out_stride);
}

void FullEmbedding::LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                     size_t out_stride) const {
  const uint32_t d = config_.dim;
  const float* table = table_.data();
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      PrefetchRead(table + ids[i + pf] * d);
    }
    CAFE_DCHECK(ids[i] < config_.total_features);
    simd::CopyRow(out + i * out_stride, table + ids[i] * d, d);
  }
}

Status FullEmbedding::SaveState(io::Writer* writer) const {
  writer->WriteU64(config_.total_features);
  writer->WriteU32(config_.dim);
  writer->WriteVec(table_);
  return Status::OK();
}

Status FullEmbedding::LoadState(io::Reader* reader) {
  uint64_t features = 0;
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&features));
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (features != config_.total_features || d != config_.dim) {
    return Status::FailedPrecondition(
        "full embedding: checkpoint sizing does not match this store");
  }
  return reader->ReadVecExpected(&table_, table_.size(), "full table");
}

void FullEmbedding::ApplyGradientBatch(const uint64_t* ids, size_t n,
                                       const float* grads, size_t grad_stride,
                                       float lr, float clip) {
  // Per-occurrence updates in stream order, gradient elements clamped as
  // they are read straight from the model's strided gradient tensor:
  // bit-identical to the scalar loop over pre-clipped gradients even when
  // the batch repeats ids.
  Obs().RecordBackward(n, n);
  const uint32_t d = config_.dim;
  const float bound = embed_internal::ClipBound(clip);
  const bool track = dirty_.enabled();
  float* table = table_.data();
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      PrefetchWrite(table + ids[i + pf] * d);
    }
    CAFE_DCHECK(ids[i] < config_.total_features);
    if (track) dirty_.Mark(ids[i]);
    simd::AxpyClipNeg(table + ids[i] * d, grads + i * grad_stride, d, lr,
                      bound);
  }
}

Status FullEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_.Enable(config_.total_features);
  } else {
    dirty_.Disable();
  }
  return Status::OK();
}

Status FullEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_.enabled()) {
    return Status::FailedPrecondition(
        "full embedding: dirty tracking is not enabled");
  }
  writer->WriteU32(config_.dim);
  const size_t delta_start = writer->size();
  const uint64_t delta_rows = dirty_.rows().size();
  delta_internal::WriteDirtyRows(writer, dirty_, table_.data(), config_.dim);
  dirty_.Flush();
  Obs().RecordDelta(delta_rows, writer->size() - delta_start);
  return Status::OK();
}

Status FullEmbedding::LoadDelta(io::Reader* reader) {
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (d != config_.dim) {
    return Status::FailedPrecondition(
        "full embedding: delta sizing does not match this store");
  }
  return delta_internal::ReadDirtyRows(reader, table_.data(),
                                       config_.total_features, config_.dim,
                                       "full table");
}

}  // namespace cafe
