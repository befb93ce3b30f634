#include "nn/embedding_bag.h"

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cafe {
EmbeddingLayerGroup::EmbeddingLayerGroup(EmbeddingStore* store,
                                         size_t num_fields)
    : store_(store), num_fields_(num_fields) {
  CAFE_CHECK(store != nullptr) << "embedding layer group needs a store";
  CAFE_CHECK(num_fields > 0) << "embedding layer group needs fields";
}

void EmbeddingLayerGroup::Forward(const Batch& batch, float* out,
                                  size_t stride) {
  CAFE_DCHECK(batch.num_fields == num_fields_);
  const uint32_t d = store_->dim();
  const size_t n = batch.batch_size;
  CAFE_DCHECK(stride >= num_fields_ * d);
  ids_.BuildFrom(batch);
  // Strided gather: field f's column block of every sample is written in
  // place at out + b*stride + f*d by the store itself — no per-field
  // staging buffer, no second copy.
  for (size_t f = 0; f < num_fields_; ++f) {
    store_->LookupBatch(ids_.field(f), n, out + f * d, stride);
  }
}

void EmbeddingLayerGroup::Backward(const Batch& batch, const float* grad,
                                   size_t stride, float lr,
                                   bool reuse_staged_ids) {
  CAFE_DCHECK(batch.num_fields == num_fields_);
  const uint32_t d = store_->dim();
  const size_t n = batch.batch_size;
  CAFE_DCHECK(stride >= num_fields_ * d);
  if (!reuse_staged_ids) {
    ids_.BuildFrom(batch);
  }
  CAFE_DCHECK(ids_.batch_size() == n && ids_.num_fields() == num_fields_);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Histogram* const backward_us_hist = registry.GetHistogram(
      "train.backward.total_us", obs::DefaultTimeBucketsUs());
  obs::ScopedTimer backward_timer("embedding.backward", backward_us_hist);
  // Strided scatter: field f's gradient column block is consumed in place
  // at grad + b*stride + f*d by the store itself, clamped as it reads —
  // the backward mirror of Forward's strided gather.
  for (size_t f = 0; f < num_fields_; ++f) {
    store_->ApplyGradientBatch(ids_.field(f), n, grad + f * d, stride, lr,
                               kGradClip);
  }
}

}  // namespace cafe
