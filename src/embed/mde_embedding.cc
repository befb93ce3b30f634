#include "embed/mde_embedding.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace cafe {
namespace {

// Per-field dims for a given scale factor: d_f = clamp(round(scale *
// (min_card / n_f)^alpha * d), 1, d). Returns total float count
// (tables + projections).
uint64_t DimsForScale(const FieldLayout& layout, uint32_t d, double alpha,
                      double scale, std::vector<uint32_t>* dims) {
  uint64_t min_card = ~0ULL;
  for (size_t f = 0; f < layout.num_fields(); ++f) {
    min_card = std::min(min_card, layout.cardinality(f));
  }
  dims->assign(layout.num_fields(), 1);
  uint64_t floats = 0;
  for (size_t f = 0; f < layout.num_fields(); ++f) {
    const double popularity = static_cast<double>(min_card) /
                              static_cast<double>(layout.cardinality(f));
    double df = scale * std::pow(popularity, alpha) * d;
    uint32_t dim_f = static_cast<uint32_t>(std::lround(df));
    dim_f = std::clamp<uint32_t>(dim_f, 1, d);
    (*dims)[f] = dim_f;
    floats += layout.cardinality(f) * dim_f + static_cast<uint64_t>(dim_f) * d;
  }
  return floats;
}

}  // namespace

StatusOr<std::unique_ptr<MdeEmbedding>> MdeEmbedding::Create(
    const EmbeddingConfig& config, const FieldLayout& layout,
    const Options& options) {
  CAFE_RETURN_IF_ERROR(config.Validate());
  if (layout.total_features() != config.total_features) {
    return Status::InvalidArgument(
        "field layout does not cover total_features");
  }
  const uint64_t budget_floats = config.BudgetBytes() / sizeof(float);

  std::vector<uint32_t> dims;
  // Check feasibility at the smallest assignment (all fields at d_f = 1).
  if (DimsForScale(layout, config.dim, options.alpha, 0.0, &dims) >
      budget_floats) {
    return Status::ResourceExhausted(
        "mde embedding: even 1-dim rows exceed the budget (column "
        "compression is bounded by the embedding dimension)");
  }
  // Binary search the largest scale whose assignment fits the budget.
  double lo = 0.0, hi = 4.0;
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (DimsForScale(layout, config.dim, options.alpha, mid, &dims) <=
        budget_floats) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  DimsForScale(layout, config.dim, options.alpha, lo, &dims);
  return std::unique_ptr<MdeEmbedding>(
      new MdeEmbedding(config, layout, std::move(dims)));
}

MdeEmbedding::MdeEmbedding(const EmbeddingConfig& config,
                           const FieldLayout& layout,
                           std::vector<uint32_t> field_dims)
    : config_(config), layout_(layout), field_dims_(std::move(field_dims)) {
  size_t table_floats = 0;
  size_t proj_floats = 0;
  table_offset_.reserve(layout_.num_fields());
  proj_offset_.reserve(layout_.num_fields());
  for (size_t f = 0; f < layout_.num_fields(); ++f) {
    table_offset_.push_back(table_floats);
    proj_offset_.push_back(proj_floats);
    table_floats += layout_.cardinality(f) * field_dims_[f];
    proj_floats += static_cast<size_t>(field_dims_[f]) * config_.dim;
  }
  tables_.resize(table_floats);
  projections_.resize(proj_floats);

  Rng rng(config.seed ^ 0x3deULL);
  for (size_t f = 0; f < layout_.num_fields(); ++f) {
    const uint32_t df = field_dims_[f];
    const float row_bound = embed_internal::InitBound(df);
    float* table = tables_.data() + table_offset_[f];
    const size_t count = layout_.cardinality(f) * df;
    for (size_t i = 0; i < count; ++i) {
      table[i] = rng.UniformFloat(-row_bound, row_bound);
    }
    // Xavier init for the d_f -> d projection.
    const float proj_bound =
        std::sqrt(6.0f / static_cast<float>(df + config_.dim));
    float* proj = projections_.data() + proj_offset_[f];
    for (size_t i = 0; i < static_cast<size_t>(df) * config_.dim; ++i) {
      proj[i] = rng.UniformFloat(-proj_bound, proj_bound);
    }
  }
}

void MdeEmbedding::Lookup(uint64_t id, float* out) { LookupOne(id, out); }

void MdeEmbedding::LookupConst(uint64_t id, float* out) const {
  // LookupOne is already a pure read over the tables; the projection runs
  // straight into `out`, so concurrent serving callers never share scratch.
  LookupOne(id, out);
}

void MdeEmbedding::LookupOne(uint64_t id, float* out) const {
  const size_t field = layout_.FieldOf(id);
  const uint64_t local = id - layout_.offset(field);
  const uint32_t df = field_dims_[field];
  const float* row = tables_.data() + table_offset_[field] + local * df;
  const float* proj = projections_.data() + proj_offset_[field];  // df x d
  for (uint32_t j = 0; j < config_.dim; ++j) out[j] = 0.0f;
  for (uint32_t i = 0; i < df; ++i) {
    simd::AddScaled(out, proj + static_cast<size_t>(i) * config_.dim,
                    config_.dim, row[i]);
  }
}

void MdeEmbedding::ApplyGradient(uint64_t id, const float* grad, float lr) {
  ApplyOne(id, grad, lr);
}

void MdeEmbedding::LookupBatch(const uint64_t* ids, size_t n, float* out,
                               size_t out_stride) {
  // Project once per unique id, then replicate the finished embedding to
  // duplicate occurrences (read-only, so results match the scalar loop).
  Obs().RecordLookup(n);
  const uint32_t d = config_.dim;
  dedup_.Build(ids, n);
  const size_t num_unique = dedup_.num_unique();
  for (size_t u = 0; u < num_unique; ++u) {
    LookupOne(dedup_.unique_id(u),
              out + static_cast<size_t>(dedup_.first_occurrence(u)) *
                        out_stride);
  }
  dedup_.ReplicateRows(out, n, d, out_stride);
}

void MdeEmbedding::LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                                    size_t out_stride) const {
  // Serving path: the per-id projection matmul is MDE's whole lookup cost,
  // so recover the per-unique dedup here too. The deduper is thread_local
  // (one per serving worker), keeping concurrent callers scratch-free with
  // respect to each other; projections are pure reads, so the output is
  // byte-identical to n scalar LookupConst calls.
  static thread_local BatchDeduper dedup;
  if (!dedup.BuildAdaptive(ids, n)) {
    for (size_t i = 0; i < n; ++i) LookupOne(ids[i], out + i * out_stride);
    return;
  }
  const size_t num_unique = dedup.num_unique();
  for (size_t u = 0; u < num_unique; ++u) {
    LookupOne(dedup.unique_id(u),
              out + static_cast<size_t>(dedup.first_occurrence(u)) *
                        out_stride);
  }
  dedup.ReplicateRows(out, n, config_.dim, out_stride);
}

void MdeEmbedding::ApplyGradientBatch(const uint64_t* ids, size_t n,
                                      const float* grads, size_t grad_stride,
                                      float lr, float clip) {
  // One row+projection backward per unique id with the clip-on-read
  // accumulated gradient: the projection matrix sees the true batch
  // gradient instead of per-occurrence partial steps.
  dedup_.Build(ids, n);
  dedup_.AccumulateRows(grads, n, config_.dim, grad_stride, clip,
                        &grad_accum_);
  const size_t num_unique = dedup_.num_unique();
  Obs().RecordBackward(n, num_unique);
  for (size_t u = 0; u < num_unique; ++u) {
    ApplyOne(dedup_.unique_id(u), grad_accum_.data() + u * config_.dim, lr);
  }
}

void MdeEmbedding::ApplyOne(uint64_t id, const float* grad, float lr) {
  const size_t field = layout_.FieldOf(id);
  const uint64_t local = id - layout_.offset(field);
  const uint32_t df = field_dims_[field];
  if (dirty_features_.enabled()) {
    dirty_features_.Mark(id);
    dirty_projections_.Mark(field);
  }
  float* row = tables_.data() + table_offset_[field] + local * df;
  float* proj = projections_.data() + proj_offset_[field];
  // d(out)/d(row_i) = proj row i; d(out)/d(proj_ij) = row_i * grad_j.
  for (uint32_t i = 0; i < df; ++i) {
    float* p = proj + static_cast<size_t>(i) * config_.dim;
    const float row_i = row[i];
    // The row-gradient dot product is a float reduction in index order —
    // it stays scalar (vectorizing would reassociate the sum). The
    // projection update reads grad only, so it splits off as an axpy with
    // coefficient lr*row_i (the same rounded product the fused loop used).
    float grad_row_i = 0.0f;
    for (uint32_t j = 0; j < config_.dim; ++j) grad_row_i += grad[j] * p[j];
    simd::AxpyNeg(p, grad, config_.dim, lr * row_i);
    row[i] -= lr * grad_row_i;
  }
}

Status MdeEmbedding::SaveState(io::Writer* writer) const {
  writer->WriteU64(config_.total_features);
  writer->WriteU32(config_.dim);
  writer->WriteVec(field_dims_);
  writer->WriteVec(tables_);
  writer->WriteVec(projections_);
  return Status::OK();
}

Status MdeEmbedding::LoadState(io::Reader* reader) {
  uint64_t features = 0;
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&features));
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (features != config_.total_features || d != config_.dim) {
    return Status::FailedPrecondition(
        "mde embedding: checkpoint sizing does not match this store");
  }
  std::vector<uint32_t> field_dims;
  CAFE_RETURN_IF_ERROR(reader->ReadVec(&field_dims));
  if (field_dims != field_dims_) {
    return Status::FailedPrecondition(
        "mde embedding: checkpoint per-field dims do not match this store");
  }
  CAFE_RETURN_IF_ERROR(
      reader->ReadVecExpected(&tables_, tables_.size(), "mde tables"));
  return reader->ReadVecExpected(&projections_, projections_.size(),
                                 "mde projections");
}

Status MdeEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_features_.Enable(config_.total_features);
    dirty_projections_.Enable(layout_.num_fields());
  } else {
    dirty_features_.Disable();
    dirty_projections_.Disable();
  }
  return Status::OK();
}

Status MdeEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_features_.enabled()) {
    return Status::FailedPrecondition(
        "mde embedding: dirty tracking is not enabled");
  }
  writer->WriteU32(config_.dim);
  writer->WriteU64(config_.total_features);
  const size_t delta_start = writer->size();
  const uint64_t delta_rows =
      dirty_features_.rows().size() + dirty_projections_.rows().size();
  // Per dirty feature: its d_f-wide table row (width derived from the
  // feature's field on both sides).
  writer->WriteU64(dirty_features_.rows().size());
  for (const uint64_t id : dirty_features_.rows()) {
    const size_t field = layout_.FieldOf(id);
    const uint64_t local = id - layout_.offset(field);
    const uint32_t df = field_dims_[field];
    writer->WriteU64(id);
    writer->WriteBytes(tables_.data() + table_offset_[field] + local * df,
                       df * sizeof(float));
  }
  // Per dirty field: the whole d_f x d projection matrix.
  writer->WriteU64(dirty_projections_.rows().size());
  for (const uint64_t field : dirty_projections_.rows()) {
    writer->WriteU64(field);
    writer->WriteBytes(
        projections_.data() + proj_offset_[field],
        static_cast<size_t>(field_dims_[field]) * config_.dim *
            sizeof(float));
  }
  dirty_features_.Flush();
  dirty_projections_.Flush();
  Obs().RecordDelta(delta_rows, writer->size() - delta_start);
  return Status::OK();
}

Status MdeEmbedding::LoadDelta(io::Reader* reader) {
  uint32_t d = 0;
  uint64_t features = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&features));
  if (d != config_.dim || features != config_.total_features) {
    return Status::FailedPrecondition(
        "mde embedding: delta sizing does not match this store");
  }
  uint64_t feature_count = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&feature_count));
  if (feature_count > config_.total_features) {
    return Status::FailedPrecondition("mde embedding: corrupt delta features");
  }
  for (uint64_t i = 0; i < feature_count; ++i) {
    uint64_t id = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&id));
    if (id >= config_.total_features) {
      return Status::FailedPrecondition(
          "mde embedding: delta feature out of range");
    }
    const size_t field = layout_.FieldOf(id);
    const uint64_t local = id - layout_.offset(field);
    const uint32_t df = field_dims_[field];
    CAFE_RETURN_IF_ERROR(reader->ReadBytes(
        tables_.data() + table_offset_[field] + local * df,
        df * sizeof(float)));
  }
  uint64_t field_count = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&field_count));
  if (field_count > layout_.num_fields()) {
    return Status::FailedPrecondition(
        "mde embedding: corrupt delta projections");
  }
  for (uint64_t i = 0; i < field_count; ++i) {
    uint64_t field = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&field));
    if (field >= layout_.num_fields()) {
      return Status::FailedPrecondition(
          "mde embedding: delta field out of range");
    }
    CAFE_RETURN_IF_ERROR(reader->ReadBytes(
        projections_.data() + proj_offset_[field],
        static_cast<size_t>(field_dims_[field]) * config_.dim *
            sizeof(float)));
  }
  return Status::OK();
}

size_t MdeEmbedding::MemoryBytes() const {
  return (tables_.size() + projections_.size()) * sizeof(float);
}

}  // namespace cafe
