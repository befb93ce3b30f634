#include "embed/qr_embedding.h"

#include <cmath>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace cafe {

StatusOr<std::unique_ptr<QrEmbedding>> QrEmbedding::Create(
    const EmbeddingConfig& config, Combine combine) {
  CAFE_RETURN_IF_ERROR(config.Validate());
  const uint64_t n = config.total_features;
  const uint64_t budget_rows =
      config.BudgetBytes() / (config.dim * sizeof(float));
  // Feasibility: need m + ceil(n/m) <= budget_rows for some m >= 1.
  // The minimum of the left side is ~2*sqrt(n).
  const double min_rows = 2.0 * std::sqrt(static_cast<double>(n));
  if (static_cast<double>(budget_rows) < min_rows) {
    return Status::ResourceExhausted(
        "qr embedding: compression ratio beyond the Q-R feasibility limit "
        "(needs >= 2*sqrt(n) rows)");
  }
  // Pick the larger root of m + n/m = budget_rows so the (collision-free
  // within a quotient group) remainder table gets most of the budget,
  // mirroring the reference implementation's small-collision setting.
  const double b = static_cast<double>(budget_rows);
  double m_real = (b + std::sqrt(b * b - 4.0 * static_cast<double>(n))) / 2.0;
  uint64_t m = static_cast<uint64_t>(m_real);
  if (m >= n) m = n - 1;  // keep the quotient table meaningful
  if (m == 0) m = 1;
  uint64_t q_rows = (n + m - 1) / m;
  // Rounding can overshoot the budget by a row; shrink m until it fits.
  while (m + q_rows > budget_rows && m > 1) {
    --m;
    q_rows = (n + m - 1) / m;
  }
  if (m + q_rows > budget_rows) {
    return Status::ResourceExhausted("qr embedding: budget too small");
  }
  return std::unique_ptr<QrEmbedding>(
      new QrEmbedding(config, combine, m, q_rows));
}

QrEmbedding::QrEmbedding(const EmbeddingConfig& config, Combine combine,
                         uint64_t m, uint64_t q_rows)
    : config_(config),
      combine_(combine),
      m_(m),
      q_rows_(q_rows),
      remainder_table_(m * config.dim),
      quotient_table_(q_rows * config.dim) {
  Rng rng(config.seed ^ 0x4243ULL);
  const float bound = embed_internal::InitBound(config.dim);
  if (combine_ == Combine::kAdd) {
    // Each final embedding is a sum of two rows; halve the scale so sums
    // match the other stores' init distribution width.
    for (float& w : remainder_table_) {
      w = rng.UniformFloat(-bound / 2, bound / 2);
    }
    for (float& w : quotient_table_) {
      w = rng.UniformFloat(-bound / 2, bound / 2);
    }
  } else {
    // Multiplicative combine: center quotient rows at 1 so products start
    // near the remainder init (the original paper's recommendation).
    for (float& w : remainder_table_) w = rng.UniformFloat(-bound, bound);
    for (float& w : quotient_table_) {
      w = 1.0f + rng.UniformFloat(-0.05f, 0.05f);
    }
  }
}

void QrEmbedding::Lookup(uint64_t id, float* out) { LookupConst(id, out); }

void QrEmbedding::LookupConst(uint64_t id, float* out) const {
  CAFE_DCHECK(id < config_.total_features);
  const float* r = remainder_table_.data() + (id % m_) * config_.dim;
  const float* q = quotient_table_.data() + (id / m_) * config_.dim;
  if (combine_ == Combine::kAdd) {
    for (uint32_t i = 0; i < config_.dim; ++i) out[i] = r[i] + q[i];
  } else {
    for (uint32_t i = 0; i < config_.dim; ++i) out[i] = r[i] * q[i];
  }
}

void QrEmbedding::ApplyGradient(uint64_t id, const float* grad, float lr) {
  CAFE_DCHECK(id < config_.total_features);
  if (dirty_remainder_.enabled()) {
    dirty_remainder_.Mark(id % m_);
    dirty_quotient_.Mark(id / m_);
  }
  float* r = remainder_table_.data() + (id % m_) * config_.dim;
  float* q = quotient_table_.data() + (id / m_) * config_.dim;
  if (combine_ == Combine::kAdd) {
    for (uint32_t i = 0; i < config_.dim; ++i) {
      r[i] -= lr * grad[i];
      q[i] -= lr * grad[i];
    }
  } else {
    for (uint32_t i = 0; i < config_.dim; ++i) {
      const float r_old = r[i];
      r[i] -= lr * grad[i] * q[i];
      q[i] -= lr * grad[i] * r_old;
    }
  }
}

void QrEmbedding::LookupBatch(const uint64_t* ids, size_t n, float* out,
                              size_t out_stride) {
  Obs().RecordLookup(n);
  LookupBatchConst(ids, n, out, out_stride);
}

void QrEmbedding::LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                   size_t out_stride) const {
  const uint32_t d = config_.dim;
  const float* rem = remainder_table_.data();
  const float* quo = quotient_table_.data();
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      const uint64_t ahead = ids[i + pf];
      PrefetchRead(rem + (ahead % m_) * d);
      PrefetchRead(quo + (ahead / m_) * d);
    }
    CAFE_DCHECK(ids[i] < config_.total_features);
    const float* r = rem + (ids[i] % m_) * d;
    const float* q = quo + (ids[i] / m_) * d;
    float* o = out + i * out_stride;
    if (combine_ == Combine::kAdd) {
      simd::AddRows(o, r, q, d);
    } else {
      simd::MulRows(o, r, q, d);
    }
  }
}

Status QrEmbedding::SaveState(io::Writer* writer) const {
  writer->WriteU64(m_);
  writer->WriteU64(q_rows_);
  writer->WriteU32(config_.dim);
  writer->WriteU8(combine_ == Combine::kAdd ? 0 : 1);
  writer->WriteVec(remainder_table_);
  writer->WriteVec(quotient_table_);
  return Status::OK();
}

Status QrEmbedding::LoadState(io::Reader* reader) {
  uint64_t m = 0, q_rows = 0;
  uint32_t d = 0;
  uint8_t combine = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&m));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&q_rows));
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  CAFE_RETURN_IF_ERROR(reader->ReadU8(&combine));
  if (m != m_ || q_rows != q_rows_ || d != config_.dim ||
      combine != (combine_ == Combine::kAdd ? 0 : 1)) {
    return Status::FailedPrecondition(
        "qr embedding: checkpoint sizing does not match this store");
  }
  CAFE_RETURN_IF_ERROR(reader->ReadVecExpected(
      &remainder_table_, remainder_table_.size(), "qr remainder table"));
  return reader->ReadVecExpected(&quotient_table_, quotient_table_.size(),
                                 "qr quotient table");
}

void QrEmbedding::ApplyGradientBatch(const uint64_t* ids, size_t n,
                                     const float* grads, size_t grad_stride,
                                     float lr, float clip) {
  // Stream order: ids sharing either component row update it in the same
  // sequence as the scalar loop; gradient elements clamp on read.
  Obs().RecordBackward(n, n);
  const uint32_t d = config_.dim;
  const float bound = embed_internal::ClipBound(clip);
  const bool track = dirty_remainder_.enabled();
  float* rem = remainder_table_.data();
  float* quo = quotient_table_.data();
  const size_t pf = PrefetchDistance();
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      const uint64_t ahead = ids[i + pf];
      PrefetchWrite(rem + (ahead % m_) * d);
      PrefetchWrite(quo + (ahead / m_) * d);
    }
    CAFE_DCHECK(ids[i] < config_.total_features);
    if (track) {
      dirty_remainder_.Mark(ids[i] % m_);
      dirty_quotient_.Mark(ids[i] / m_);
    }
    float* r = rem + (ids[i] % m_) * d;
    float* q = quo + (ids[i] / m_) * d;
    const float* g = grads + i * grad_stride;
    if (combine_ == Combine::kAdd) {
      // The two component rows read only their own gradient element, so the
      // interleaved scalar update splits into two element-wise axpy passes
      // with identical per-element rounding.
      simd::AxpyClipNeg(r, g, d, lr, bound);
      simd::AxpyClipNeg(q, g, d, lr, bound);
    } else {
      for (uint32_t k = 0; k < d; ++k) {
        const float gk = embed_internal::ClipVal(g[k], bound);
        const float r_old = r[k];
        r[k] -= lr * gk * q[k];
        q[k] -= lr * gk * r_old;
      }
    }
  }
}

Status QrEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_remainder_.Enable(m_);
    dirty_quotient_.Enable(q_rows_);
  } else {
    dirty_remainder_.Disable();
    dirty_quotient_.Disable();
  }
  return Status::OK();
}

Status QrEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_remainder_.enabled()) {
    return Status::FailedPrecondition(
        "qr embedding: dirty tracking is not enabled");
  }
  writer->WriteU32(config_.dim);
  const size_t delta_start = writer->size();
  const uint64_t delta_rows =
      dirty_remainder_.rows().size() + dirty_quotient_.rows().size();
  delta_internal::WriteDirtyRows(writer, dirty_remainder_,
                                 remainder_table_.data(), config_.dim);
  delta_internal::WriteDirtyRows(writer, dirty_quotient_,
                                 quotient_table_.data(), config_.dim);
  dirty_remainder_.Flush();
  dirty_quotient_.Flush();
  Obs().RecordDelta(delta_rows, writer->size() - delta_start);
  return Status::OK();
}

Status QrEmbedding::LoadDelta(io::Reader* reader) {
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (d != config_.dim) {
    return Status::FailedPrecondition(
        "qr embedding: delta sizing does not match this store");
  }
  CAFE_RETURN_IF_ERROR(delta_internal::ReadDirtyRows(
      reader, remainder_table_.data(), m_, config_.dim,
      "qr remainder table"));
  return delta_internal::ReadDirtyRows(reader, quotient_table_.data(),
                                       q_rows_, config_.dim,
                                       "qr quotient table");
}

}  // namespace cafe
