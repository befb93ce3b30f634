#include "embed/offline_separation.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/prefetch.h"
#include "common/simd.h"

namespace cafe {

StatusOr<std::unique_ptr<OfflineSeparationEmbedding>>
OfflineSeparationEmbedding::Create(const EmbeddingConfig& config,
                                   uint64_t hot_rows, uint64_t shared_rows,
                                   const std::vector<uint64_t>& hot_ids) {
  CAFE_RETURN_IF_ERROR(config.Validate());
  if (shared_rows == 0) {
    return Status::InvalidArgument(
        "offline separation needs at least one shared row");
  }
  return std::unique_ptr<OfflineSeparationEmbedding>(
      new OfflineSeparationEmbedding(config, hot_rows, shared_rows, hot_ids));
}

OfflineSeparationEmbedding::OfflineSeparationEmbedding(
    const EmbeddingConfig& config, uint64_t hot_rows, uint64_t shared_rows,
    const std::vector<uint64_t>& hot_ids)
    : config_(config),
      hot_rows_(hot_rows),
      shared_rows_(shared_rows),
      hash_(config.seed ^ 0x0f1dULL) {
  hot_pool_.Reset(hot_rows, config.dim);
  shared_pool_.Reset(shared_rows, config.dim);
  hot_index_.reserve(hot_rows * 2);
  for (uint64_t i = 0; i < hot_rows && i < hot_ids.size(); ++i) {
    hot_index_.emplace(hot_ids[i], static_cast<uint32_t>(i));
  }
  Rng rng(config.seed);
  const float bound = embed_internal::InitBound(config.dim);
  auto fill = [&](RowPool& pool) {
    for (uint64_t r = 0; r < pool.num_rows(); ++r) {
      float* row = pool.Row(r);
      for (uint32_t k = 0; k < config.dim; ++k) {
        row[k] = rng.UniformFloat(-bound, bound);
      }
    }
  };
  fill(hot_pool_);
  fill(shared_pool_);
}

float* OfflineSeparationEmbedding::RowOf(uint64_t id) {
  auto it = hot_index_.find(id);
  return it != hot_index_.end()
             ? hot_pool_.Row(it->second)
             : shared_pool_.Row(hash_.Bounded(id, shared_rows_));
}

const float* OfflineSeparationEmbedding::RowOf(uint64_t id) const {
  auto it = hot_index_.find(id);
  return it != hot_index_.end()
             ? hot_pool_.Row(it->second)
             : shared_pool_.Row(hash_.Bounded(id, shared_rows_));
}

void OfflineSeparationEmbedding::Lookup(uint64_t id, float* out) {
  LookupConst(id, out);
}

void OfflineSeparationEmbedding::LookupConst(uint64_t id, float* out) const {
  std::memcpy(out, RowOf(id), config_.dim * sizeof(float));
}

void OfflineSeparationEmbedding::ApplyGradient(uint64_t id, const float* grad,
                                               float lr) {
  const uint64_t index = RowIndexOf(id);
  if (dirty_hot_.enabled()) MarkRow(index);
  float* row = RowAt(index);
  for (uint32_t i = 0; i < config_.dim; ++i) row[i] -= lr * grad[i];
}

void OfflineSeparationEmbedding::LookupBatch(const uint64_t* ids, size_t n,
                                             float* out, size_t out_stride) {
  // One hot-index probe per unique id when the batch dedups (skewed
  // per-field streams); mostly-unique batches abandon the scratch table and
  // run a direct resolve + prefetched copy instead. Either way the output
  // is byte-identical to n scalar Lookup calls.
  Obs().RecordLookup(n);
  const uint32_t d = config_.dim;
  if (!dedup_.BuildAdaptive(ids, n)) {
    row_scratch_.resize(n);
    const size_t pf = PrefetchDistance();
    for (size_t i = 0; i < n; ++i) row_scratch_[i] = RowOf(ids[i]);
    for (size_t i = 0; i < n; ++i) {
      if (i + pf < n) {
        PrefetchRead(row_scratch_[i + pf]);
      }
      simd::CopyRow(out + i * out_stride, row_scratch_[i], d);
    }
    return;
  }
  const size_t num_unique = dedup_.num_unique();
  const size_t pf = PrefetchDistance();
  row_scratch_.resize(num_unique);
  for (size_t u = 0; u < num_unique; ++u) {
    row_scratch_[u] = RowOf(dedup_.unique_id(u));
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + pf < n) {
      PrefetchRead(row_scratch_[dedup_.unique_of(i + pf)]);
    }
    simd::CopyRow(out + i * out_stride, row_scratch_[dedup_.unique_of(i)], d);
  }
}

void OfflineSeparationEmbedding::ApplyGradientBatch(const uint64_t* ids,
                                                    size_t n,
                                                    const float* grads,
                                                    size_t grad_stride,
                                                    float lr, float clip) {
  // Resolve each unique id once and apply its clip-on-read accumulated
  // gradient in one SGD step. The hot/shared split is static, so this is
  // the plain batch formulation of the scalar loop. Rows resolve up front
  // so the scatter can prefetch ahead of the SGD writes, mirroring the
  // gather side.
  const uint32_t d = config_.dim;
  const bool track = dirty_hot_.enabled();
  dedup_.Build(ids, n);
  dedup_.AccumulateRows(grads, n, d, grad_stride, clip, &grad_accum_);
  const size_t num_unique = dedup_.num_unique();
  Obs().RecordBackward(n, num_unique);
  index_scratch_.resize(num_unique);
  for (size_t u = 0; u < num_unique; ++u) {
    index_scratch_[u] = RowIndexOf(dedup_.unique_id(u));
  }
  const size_t pf = PrefetchDistance();
  for (size_t u = 0; u < num_unique; ++u) {
    if (u + pf < num_unique) {
      PrefetchWrite(RowAt(index_scratch_[u + pf]));
    }
    const uint64_t index = index_scratch_[u];
    if (track) MarkRow(index);
    simd::AxpyNeg(RowAt(index), grad_accum_.data() + u * d, d, lr);
  }
}

Status OfflineSeparationEmbedding::EnableDirtyTracking(bool enable) {
  if (enable) {
    dirty_hot_.Enable(hot_rows_);
    dirty_shared_.Enable(shared_rows_);
  } else {
    dirty_hot_.Disable();
    dirty_shared_.Disable();
  }
  return Status::OK();
}

Status OfflineSeparationEmbedding::SaveDelta(io::Writer* writer) {
  if (!dirty_hot_.enabled()) {
    return Status::FailedPrecondition(
        "offline separation: dirty tracking is not enabled");
  }
  writer->WriteU32(config_.dim);
  const size_t delta_start = writer->size();
  const uint64_t delta_rows =
      dirty_hot_.rows().size() + dirty_shared_.rows().size();
  delta_internal::WriteDirtyRowsAt(
      writer, dirty_hot_, [this](uint64_t row) { return hot_pool_.Row(row); },
      config_.dim);
  delta_internal::WriteDirtyRowsAt(
      writer, dirty_shared_,
      [this](uint64_t row) { return shared_pool_.Row(row); }, config_.dim);
  dirty_hot_.Flush();
  dirty_shared_.Flush();
  Obs().RecordDelta(delta_rows, writer->size() - delta_start);
  return Status::OK();
}

Status OfflineSeparationEmbedding::LoadDelta(io::Reader* reader) {
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (d != config_.dim) {
    return Status::FailedPrecondition(
        "offline separation: delta sizing does not match this store");
  }
  CAFE_RETURN_IF_ERROR(delta_internal::ReadDirtyRowsAt(
      reader, [this](uint64_t row) { return hot_pool_.Row(row); }, hot_rows_,
      config_.dim, "offline hot table"));
  return delta_internal::ReadDirtyRowsAt(
      reader, [this](uint64_t row) { return shared_pool_.Row(row); },
      shared_rows_, config_.dim, "offline shared table");
}

Status OfflineSeparationEmbedding::SaveState(io::Writer* writer) const {
  writer->WriteU64(hot_rows_);
  writer->WriteU64(shared_rows_);
  writer->WriteU32(config_.dim);
  // The hot index is part of the frozen oracle assignment; serialize it
  // sorted by feature id so the file bytes are deterministic regardless of
  // hash-map iteration order.
  std::vector<std::pair<uint64_t, uint32_t>> index(hot_index_.begin(),
                                                   hot_index_.end());
  std::sort(index.begin(), index.end());
  writer->WriteU64(index.size());
  for (const auto& [id, row] : index) {
    writer->WriteU64(id);
    writer->WriteU32(row);
  }
  hot_pool_.Save(writer);
  shared_pool_.Save(writer);
  return Status::OK();
}

Status OfflineSeparationEmbedding::LoadState(io::Reader* reader) {
  uint64_t hot_rows = 0, shared_rows = 0;
  uint32_t d = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&hot_rows));
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&shared_rows));
  CAFE_RETURN_IF_ERROR(reader->ReadU32(&d));
  if (hot_rows != hot_rows_ || shared_rows != shared_rows_ ||
      d != config_.dim) {
    return Status::FailedPrecondition(
        "offline separation: checkpoint sizing does not match this store");
  }
  uint64_t index_size = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&index_size));
  if (index_size > hot_rows_) {
    return Status::FailedPrecondition(
        "offline separation: corrupt hot index size");
  }
  std::unordered_map<uint64_t, uint32_t> index;
  index.reserve(index_size * 2);
  for (uint64_t i = 0; i < index_size; ++i) {
    uint64_t id = 0;
    uint32_t row = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&id));
    CAFE_RETURN_IF_ERROR(reader->ReadU32(&row));
    if (row >= hot_rows_) {
      return Status::FailedPrecondition(
          "offline separation: hot index row out of range");
    }
    index.emplace(id, row);
  }
  hot_index_ = std::move(index);
  CAFE_RETURN_IF_ERROR(hot_pool_.Load(reader, "offline hot table"));
  return shared_pool_.Load(reader, "offline shared table");
}

size_t OfflineSeparationEmbedding::MemoryBytes() const {
  // Embedding tables + the offline frequency statistics (4B per feature).
  return hot_pool_.MemoryBytes() + shared_pool_.MemoryBytes() +
         config_.total_features * sizeof(float);
}

}  // namespace cafe
