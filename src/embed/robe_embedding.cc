#include "embed/robe_embedding.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace cafe {

StatusOr<std::unique_ptr<RobeEmbedding>> RobeEmbedding::Create(
    const EmbeddingConfig& config) {
  CAFE_RETURN_IF_ERROR(config.Validate());
  const uint64_t budget_floats = config.BudgetBytes() / sizeof(float);
  uint64_t slots = std::min<uint64_t>(
      budget_floats, config.total_features * static_cast<uint64_t>(config.dim));
  slots -= slots % config.dim;  // block-align so windows span <= 2 rows
  if (slots == 0) {
    return Status::ResourceExhausted(
        "robe embedding: budget below one block; lower the compression ratio");
  }
  return std::unique_ptr<RobeEmbedding>(new RobeEmbedding(config, slots));
}

RobeEmbedding::RobeEmbedding(const EmbeddingConfig& config, uint64_t slots)
    : config_(config),
      slots_(slots),
      num_rows_(slots / config.dim),
      hash_(config.seed ^ 0x0be0b10cULL),
      flat_(slots) {
  Rng rng(config.seed);
  const float bound = embed_internal::InitBound(config.dim);
  for (float& w : flat_) w = rng.UniformFloat(-bound, bound);
}

void RobeEmbedding::Lookup(uint64_t id, float* out) { LookupConst(id, out); }

void RobeEmbedding::LookupConst(uint64_t id, float* out) const {
  const uint64_t base = BaseOf(id);
  const uint64_t tail = slots_ - base;
  const uint32_t d = config_.dim;
  if (tail >= d) {
    std::memcpy(out, flat_.data() + base, d * sizeof(float));
  } else {
    std::memcpy(out, flat_.data() + base, tail * sizeof(float));
    std::memcpy(out + tail, flat_.data(),
                (d - tail) * sizeof(float));
  }
}

void RobeEmbedding::ApplyGradient(uint64_t id, const float* grad, float lr) {
  const uint64_t base = BaseOf(id);
  if (dirty_.enabled()) MarkWindow(base);
  const uint64_t tail = slots_ - base;
  const uint32_t d = config_.dim;
  float* flat = flat_.data();
  if (tail >= d) {
    float* w = flat + base;
    for (uint32_t k = 0; k < d; ++k) w[k] -= lr * grad[k];
  } else {
    for (uint64_t k = 0; k < tail; ++k) flat[base + k] -= lr * grad[k];
    for (uint64_t k = tail; k < d; ++k) flat[k - tail] -= lr * grad[k];
  }
}

void RobeEmbedding::LookupBatch(const uint64_t* ids, size_t n, float* out,
                                size_t out_stride) {
  Obs().RecordLookup(n);
  const uint32_t d = config_.dim;
  const float* flat = flat_.data();
  const size_t pf = PrefetchDistance();
  base_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) base_scratch_[i] = BaseOf(ids[i]);
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) PrefetchRead(flat + base_scratch_[i + pf]);
    const uint64_t base = base_scratch_[i];
    const uint64_t tail = slots_ - base;
    float* dst = out + i * out_stride;
    if (tail >= d) {
      simd::CopyRow(dst, flat + base, d);
    } else {
      simd::CopyRow(dst, flat + base, static_cast<uint32_t>(tail));
      simd::CopyRow(dst + tail, flat, d - static_cast<uint32_t>(tail));
    }
  }
}

void RobeEmbedding::LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                     size_t out_stride) const {
  // Scratch-free (concurrent serving callers): the window PrefetchDistance()
  // ahead is hashed twice — once to prefetch, once to copy.
  const uint32_t d = config_.dim;
  const float* flat = flat_.data();
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) PrefetchRead(flat + BaseOf(ids[i + pf]));
    const uint64_t base = BaseOf(ids[i]);
    const uint64_t tail = slots_ - base;
    float* dst = out + i * out_stride;
    if (tail >= d) {
      simd::CopyRow(dst, flat + base, d);
    } else {
      simd::CopyRow(dst, flat + base, static_cast<uint32_t>(tail));
      simd::CopyRow(dst + tail, flat, d - static_cast<uint32_t>(tail));
    }
  }
}

void RobeEmbedding::ApplyGradientBatch(const uint64_t* ids, size_t n,
                                       const float* grads, size_t grad_stride,
                                       float lr, float clip) {
  // Per-occurrence updates in stream order: overlapping windows scatter
  // their updates in the same sequence as the scalar loop (bit-identical
  // results); gradient elements clamp on read straight from the strided
  // tensor.
  Obs().RecordBackward(n, n);
  const uint32_t d = config_.dim;
  const float bound = embed_internal::ClipBound(clip);
  const bool track = dirty_.enabled();
  float* flat = flat_.data();
  const size_t pf = PrefetchDistance();
  base_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) base_scratch_[i] = BaseOf(ids[i]);
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) PrefetchWrite(flat + base_scratch_[i + pf]);
    const uint64_t base = base_scratch_[i];
    if (track) MarkWindow(base);
    const uint64_t tail = slots_ - base;
    const float* g = grads + i * grad_stride;
    if (tail >= d) {
      simd::AxpyClipNeg(flat + base, g, d, lr, bound);
    } else {
      simd::AxpyClipNeg(flat + base, g, static_cast<uint32_t>(tail), lr,
                        bound);
      simd::AxpyClipNeg(flat, g + tail, d - static_cast<uint32_t>(tail), lr,
                        bound);
    }
  }
}

Status RobeEmbedding::SaveState(io::Writer* writer) const {
  writer->WriteU64(slots_);
  writer->WriteU32(config_.dim);
  writer->WriteVec(flat_);
  return Status::OK();
}

Status RobeEmbedding::LoadState(io::Reader* reader) {
  uint64_t slots = 0;
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&slots));
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (slots != slots_ || d != config_.dim) {
    return Status::FailedPrecondition(
        "robe embedding: checkpoint sizing does not match this store");
  }
  return reader->ReadVecExpected(&flat_, flat_.size(), "robe flat array");
}

Status RobeEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_.Enable(num_rows_);
  } else {
    dirty_.Disable();
  }
  return Status::OK();
}

Status RobeEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_.enabled()) {
    return Status::FailedPrecondition(
        "robe embedding: dirty tracking is not enabled");
  }
  writer->WriteU32(config_.dim);
  const size_t delta_start = writer->size();
  const uint64_t delta_rows = dirty_.rows().size();
  delta_internal::WriteDirtyRows(writer, dirty_, flat_.data(), config_.dim);
  dirty_.Flush();
  Obs().RecordDelta(delta_rows, writer->size() - delta_start);
  return Status::OK();
}

Status RobeEmbedding::LoadDelta(io::Reader* reader) {
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (d != config_.dim) {
    return Status::FailedPrecondition(
        "robe embedding: delta sizing does not match this store");
  }
  return delta_internal::ReadDirtyRows(reader, flat_.data(), num_rows_,
                                       config_.dim, "robe flat array");
}

}  // namespace cafe
