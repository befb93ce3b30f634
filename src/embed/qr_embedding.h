#ifndef CAFE_EMBED_QR_EMBEDDING_H_
#define CAFE_EMBED_QR_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "embed/dirty_rows.h"
#include "embed/embedding_store.h"

namespace cafe {

/// Quotient-Remainder compositional embedding (Shi et al., KDD 2020): two
/// complementary tables; feature id combines row (id mod m) of the
/// remainder table with row (id div m) of the quotient table, so any two
/// distinct ids differ in at least one of the two rows.
///
/// Combine operations: element-wise add (default here; robust to train in a
/// small SGD stack) or element-wise multiply (the original paper's best).
///
/// Compression limit: the two tables need at least m + ceil(n/m) rows, which
/// is minimized at 2*sqrt(n) — this is why Q-R "can only compress to around
/// 500x" in the paper (§5.2.1). Create() returns ResourceExhausted beyond
/// the feasible ratio, and benches report the method as absent, matching
/// the paper's truncated Q-R curves.
class QrEmbedding : public EmbeddingStore {
 public:
  enum class Combine { kAdd, kMultiply };

  static StatusOr<std::unique_ptr<QrEmbedding>> Create(
      const EmbeddingConfig& config, Combine combine = Combine::kAdd);

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
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;
  size_t MemoryBytes() const override {
    return (remainder_table_.size() + quotient_table_.size()) * sizeof(float);
  }
  std::string Name() const override { return "qr"; }

  uint64_t remainder_rows() const { return m_; }
  uint64_t quotient_rows() const { return q_rows_; }

 private:
  QrEmbedding(const EmbeddingConfig& config, Combine combine, uint64_t m,
              uint64_t q_rows);

  EmbeddingConfig config_;
  Combine combine_;
  uint64_t m_;       // remainder table rows
  uint64_t q_rows_;  // quotient table rows = ceil(n / m)
  std::vector<float> remainder_table_;
  std::vector<float> quotient_table_;
  // Each component table is its own physical row space: an id's update
  // dirties one row in EACH.
  DirtyRowSet dirty_remainder_;
  DirtyRowSet dirty_quotient_;
};

}  // namespace cafe

#endif  // CAFE_EMBED_QR_EMBEDDING_H_
