#ifndef CAFE_NN_EMBEDDING_BAG_H_
#define CAFE_NN_EMBEDDING_BAG_H_

#include <vector>

#include "data/batch.h"
#include "embed/embedding_store.h"

namespace cafe {

/// The batched embedding layer shared by every recommendation model: it
/// owns the field-major id staging and drives the EmbeddingStore through
/// one LookupBatch / ApplyGradientBatch call per field instead of one
/// virtual Lookup / ApplyGradient per (sample, field). Both directions are
/// staging-free: Forward gathers each field's column block straight into
/// the model input via LookupBatch's output stride, and Backward scatters
/// each field's gradient column block straight out of the model's gradient
/// tensor via ApplyGradientBatch's gradient stride, with the elementwise
/// clip fused into the store's read.
///
/// Field-major execution matters beyond devirtualization: ids repeat within
/// a field (the same hot advertiser, the same site id), so per-field batches
/// are exactly the streams the stores' in-batch deduplication compresses.
///
/// Layout contract: sample b's embedding block starts at out + b * stride,
/// with field f at column offset f * dim — the sample-major concatenation
/// every model feeds its dense layers. The gradient passed to Backward uses
/// the same layout.
class EmbeddingLayerGroup {
 public:
  /// `store` must outlive the group. `stride` defaults (0) to
  /// num_fields * dim, the packed layout; WDL/DCN pass their full input
  /// width so embeddings land directly in the model input tensor.
  EmbeddingLayerGroup(EmbeddingStore* store, size_t num_fields);

  /// Batched forward for all fields of `batch`: writes batch.batch_size
  /// sample blocks at out + b * stride (stride in floats). Each field's
  /// LookupBatch writes its strided column block directly (no staging copy).
  void Forward(const Batch& batch, float* out, size_t stride);

  /// Batched backward: routes each field's gradient column block of `grad`
  /// (mirroring Forward's layout) to the store with SGD rate `lr`; the
  /// store clamps every element to [-kGradClip, kGradClip] as it reads —
  /// no per-field staging buffer, no second pass over the gradient.
  /// `reuse_staged_ids` lets a TrainStep that just ran Forward on the SAME
  /// unmodified batch skip re-transposing the ids; the caller asserts the
  /// reuse explicitly (no pointer-identity guessing).
  void Backward(const Batch& batch, const float* grad, size_t stride,
                float lr, bool reuse_staged_ids = false);

  EmbeddingStore* store() const { return store_; }

  /// Elementwise gradient clip applied by Backward. Keeps heavily collided
  /// shared rows stable at extreme compression ratios (hundreds of features
  /// SGD-ing into one row can otherwise enter a positive-feedback blowup).
  /// Uniform across stores so method comparisons stay fair.
  static constexpr float kGradClip = 1.0f;

 private:
  EmbeddingStore* store_;
  size_t num_fields_;

  // Field-major id staging, reused across batches (BuildFrom only grows
  // the backing buffer; steady state re-fills in place, no allocation).
  FieldMajorIds ids_;
};

}  // namespace cafe

#endif  // CAFE_NN_EMBEDDING_BAG_H_
