#ifndef CAFE_EMBED_FULL_EMBEDDING_H_
#define CAFE_EMBED_FULL_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "embed/dirty_rows.h"
#include "embed/embedding_store.h"

namespace cafe {

/// Uncompressed embedding table: one exclusive row per feature. The "ideal"
/// upper-bound baseline in every figure of the paper. Ignores the configured
/// compression ratio (always stores n rows).
class FullEmbedding : public EmbeddingStore {
 public:
  static StatusOr<std::unique_ptr<FullEmbedding>> Create(
      const EmbeddingConfig& config);

  uint32_t dim() const override { return config_.dim; }
  void Lookup(uint64_t id, float* out) override;
  void LookupConst(uint64_t id, float* out) const override;
  void ApplyGradient(uint64_t id, const float* grad, float lr) override;
  using EmbeddingStore::LookupBatch;
  void LookupBatch(const uint64_t* ids, size_t n, float* out,
                   size_t out_stride) override;
  void LookupBatchConst(const uint64_t* ids, size_t n, float* out,
                        size_t out_stride) const override;
  using EmbeddingStore::ApplyGradientBatch;
  void ApplyGradientBatch(const uint64_t* ids, size_t n, const float* grads,
                          size_t grad_stride, float lr, float clip) override;
  size_t MemoryBytes() const override {
    return table_.size() * sizeof(float);
  }
  std::string Name() const override { return "full"; }
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;

 private:
  explicit FullEmbedding(const EmbeddingConfig& config);

  EmbeddingConfig config_;
  std::vector<float> table_;  // n x dim
  DirtyRowSet dirty_;         // table rows touched since the last delta cut
};

}  // namespace cafe

#endif  // CAFE_EMBED_FULL_EMBEDDING_H_
