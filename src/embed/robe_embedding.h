#ifndef CAFE_EMBED_ROBE_EMBEDDING_H_
#define CAFE_EMBED_ROBE_EMBEDDING_H_

#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "embed/dirty_rows.h"
#include "embed/embedding_store.h"

namespace cafe {

/// ROBE — Random Offset Block Embedding (Desai et al., arXiv 2108.02191):
/// ONE flat parameter array of m floats; feature id's embedding is the
/// contiguous window [h(id), h(id)+d) mod m, so windows overlap at
/// arbitrary offsets and colliding ids share individual PARAMETERS rather
/// than whole rows. Compression ratio is a free parameter (m = budget
/// floats, no row granularity), and every lookup is one or two contiguous
/// reads — cache-friendlier than the hashing trick's row gather, which is
/// why this store anchors the SIMD gather/scatter pass.
///
/// Physical-row bookkeeping (dirty tracking) works on aligned d-float
/// blocks of the flat array: m is rounded down to a multiple of d, so any
/// window touches at most two adjacent blocks (the second possibly
/// wrapping to block 0). Updates are per-occurrence in stream order like
/// full/hash/qr — bit-identical to the scalar loop.
class RobeEmbedding : public EmbeddingStore {
 public:
  static StatusOr<std::unique_ptr<RobeEmbedding>> Create(
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
  size_t MemoryBytes() const override { return flat_.size() * sizeof(float); }
  std::string Name() const override { return "robe"; }
  Status SaveState(io::Writer* writer) const override;
  Status LoadState(io::Reader* reader) override;
  using EmbeddingStore::EnableDirtyTracking;
  Status EnableDirtyTracking(bool enable) override;
  Status SaveDelta(io::Writer* writer) override;
  Status LoadDelta(io::Reader* reader) override;

  /// Flat-array size in floats (m, a multiple of dim).
  uint64_t num_slots() const { return slots_; }
  /// Aligned d-float blocks — the physical row space for dirty tracking.
  uint64_t num_rows() const { return num_rows_; }

 private:
  RobeEmbedding(const EmbeddingConfig& config, uint64_t slots);

  /// Window start for `id`, uniform over [0, slots_).
  uint64_t BaseOf(uint64_t id) const { return hash_.Bounded(id, slots_); }

  /// Marks the (at most two) blocks the window at `base` touches.
  void MarkWindow(uint64_t base) {
    const uint64_t row = base / config_.dim;
    dirty_.Mark(row);
    if (base % config_.dim != 0) dirty_.Mark(row + 1 == num_rows_ ? 0
                                                                  : row + 1);
  }

  EmbeddingConfig config_;
  uint64_t slots_;     // m: flat floats, multiple of dim
  uint64_t num_rows_;  // slots_ / dim
  SeededHash hash_;
  std::vector<float> flat_;  // the single shared parameter array
  /// Window bases of the in-flight batch: hashed once up front so the
  /// gather/scatter loops can prefetch ahead. Reused across calls.
  std::vector<uint64_t> base_scratch_;
  DirtyRowSet dirty_;  // aligned blocks touched since the last delta cut
};

}  // namespace cafe

#endif  // CAFE_EMBED_ROBE_EMBEDDING_H_
