#ifndef CAFE_EMBED_BATCH_DEDUP_H_
#define CAFE_EMBED_BATCH_DEDUP_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "common/simd.h"
#include "embed/embedding_store.h"

namespace cafe {

/// In-batch unique-id deduplicator for the batched embedding paths.
///
/// Adaptive stores (AdaEmbed, CAFE, offline separation, MDE) pay a per-id
/// probe — sketch lookup, hash-map find, score bookkeeping — on every
/// Lookup/ApplyGradient. Recommendation batches are heavily skewed (Zipf
/// within every field), so a 4096-id batch typically contains far fewer
/// unique ids; deduplicating once per batch turns O(batch) probes into
/// O(unique) probes and lets gradients accumulate per unique id before a
/// single update, which is how per-batch sketch insertion works in the
/// paper's training loop.
///
/// Two index structures, chosen per batch by the id RANGE (max - min):
///  - dense: per-field batches span at most the field's cardinality, and
///    most CTR fields are small, so a direct-indexed, generation-stamped
///    array (entry = generation<<32 | unique index) covers them with one
///    L1/L2 access per id and no hashing;
///  - probe: open-addressing over hashed ids for wide-range (multi-field or
///    huge-field) batches.
///
/// All scratch is owned by the store and reused across calls (lazy reset
/// via generation stamps), so steady-state Build() does no allocation.
/// Unique ids keep first-appearance order in both modes: stores process
/// unique ids in exactly the order the scalar path would first touch them,
/// which keeps batched execution bit-identical to the scalar path whenever
/// each id occurs once in the batch.
class BatchDeduper {
 public:
  /// Deduplicates ids[0..n). After the call: num_unique() unique ids in
  /// first-appearance order, per-unique occurrence counts, and a per-
  /// occurrence map to unique indices.
  void Build(const uint64_t* ids, size_t n) { BuildInternal(ids, n, n); }

  /// Like Build, but gives up when deduplication is not paying: after a
  /// prefix of `sample` ids, if more than `abandon_fraction` of them were
  /// unique the rest of the batch would mostly miss the scratch table and
  /// the caller is better off on its direct per-occurrence loop. Returns
  /// true when the full dedup was built, false when abandoned (the
  /// deduper's accessors are then unspecified).
  bool BuildAdaptive(const uint64_t* ids, size_t n, size_t sample = 512,
                     double abandon_fraction = 0.45) {
    if (n <= sample) {
      BuildInternal(ids, n, n);
      return true;
    }
    BuildInternal(ids, n, sample);
    if (static_cast<double>(unique_.size()) >
        abandon_fraction * static_cast<double>(sample)) {
      return false;
    }
    ResumeInternal(ids, sample, n);
    return true;
  }

  size_t num_unique() const { return unique_.size(); }
  const std::vector<uint64_t>& unique_ids() const { return unique_; }
  uint64_t unique_id(size_t u) const { return unique_[u]; }
  /// Occurrences of unique id `u` in the batch.
  uint32_t count(size_t u) const { return counts_[u]; }
  /// Unique index of occurrence `i`.
  uint32_t unique_of(size_t i) const { return occ_to_unique_[i]; }
  /// Batch position where unique id `u` first appeared.
  uint32_t first_occurrence(size_t u) const { return first_occurrence_[u]; }

  /// Sums per-occurrence rows (dim floats at grads + i*stride, each element
  /// clamped to [-clip, clip] on read when clip > 0) into per-unique rows:
  /// (*accum)[u*dim ..] = sum over occurrences of unique id u, added in
  /// occurrence order so a single-occurrence id reproduces its (clipped)
  /// gradient bit-for-bit. The clip-on-read is bit-identical to clamping
  /// into a contiguous staging buffer first — which is exactly the copy the
  /// strided backward path deletes.
  void AccumulateRows(const float* grads, size_t n, uint32_t dim,
                      size_t stride, float clip,
                      std::vector<float>* accum) const {
    const float bound = embed_internal::ClipBound(clip);
    accum->assign(unique_.size() * dim, 0.0f);
    float* acc = accum->data();
    for (size_t i = 0; i < n; ++i) {
      simd::AccumClip(acc + static_cast<size_t>(occ_to_unique_[i]) * dim,
                      grads + i * stride, dim, bound);
    }
  }
  /// Packed, unclipped overload.
  void AccumulateRows(const float* grads, size_t n, uint32_t dim,
                      std::vector<float>* accum) const {
    AccumulateRows(grads, n, dim, dim, /*clip=*/0.0f, accum);
  }

  /// Sums per-occurrence (clipped) gradient L2 norms into per-unique
  /// importances. Summing norms — NOT taking the norm of the sum — is
  /// load-bearing for the importance-tracking stores: mixed-sign gradients
  /// across a batch must not cancel a hot feature's importance, and it
  /// keeps batched scores identical to the scalar stream's totals.
  void AccumulateNorms(const float* grads, size_t n, uint32_t dim,
                       size_t stride, float clip,
                       std::vector<double>* accum) const {
    const float bound = embed_internal::ClipBound(clip);
    accum->assign(unique_.size(), 0.0);
    double* acc = accum->data();
    for (size_t i = 0; i < n; ++i) {
      acc[occ_to_unique_[i]] +=
          embed_internal::ClippedGradNorm(grads + i * stride, dim, bound);
    }
  }
  /// Packed, unclipped overload.
  void AccumulateNorms(const float* grads, size_t n, uint32_t dim,
                       std::vector<double>* accum) const {
    AccumulateNorms(grads, n, dim, dim, /*clip=*/0.0f, accum);
  }

  /// Replicates each unique id's finished row (already materialized at its
  /// first occurrence in `out`, dim floats per `stride`-float slot) to every
  /// duplicate occurrence. The shared tail of the dedup'd LookupBatch paths.
  void ReplicateRows(float* out, size_t n, uint32_t dim,
                     size_t stride) const {
    if (unique_.size() == n) return;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t first = first_occurrence_[occ_to_unique_[i]];
      if (first != i) {
        simd::CopyRow(out + i * stride,
                      out + static_cast<size_t>(first) * stride, dim);
      }
    }
  }
  void ReplicateRows(float* out, size_t n, uint32_t dim) const {
    ReplicateRows(out, n, dim, dim);
  }

 private:
  /// Ranges up to this span use the dense direct-indexed path; 64Ki entries
  /// of 8 bytes keep the scratch inside L2 even for the largest dense case,
  /// and inside L1 for the small fields that dominate CTR data.
  static constexpr uint64_t kDenseRangeLimit = 1ULL << 16;

  void BuildInternal(const uint64_t* ids, size_t n, size_t prefix) {
    unique_.clear();
    counts_.clear();
    first_occurrence_.clear();
    occ_to_unique_.resize(n);

    uint64_t min_id = ~0ULL, max_id = 0;
    for (size_t i = 0; i < n; ++i) {
      min_id = std::min(min_id, ids[i]);
      max_id = std::max(max_id, ids[i]);
    }
    base_ = min_id;
    dense_mode_ = n > 0 && (max_id - min_id) < kDenseRangeLimit;

    if (dense_mode_) {
      const size_t span = static_cast<size_t>(max_id - min_id) + 1;
      if (span > dense_.size()) {
        dense_.assign(span, 0);
        dense_generation_ = 0;
      }
      ++dense_generation_;
      if (dense_generation_ == 0) {  // u32 wrap: stamps are stale
        std::fill(dense_.begin(), dense_.end(), 0);
        dense_generation_ = 1;
      }
    } else {
      size_t want = 16;
      while (want < 2 * n) want <<= 1;
      if (want > slots_.size()) {
        slots_.assign(want, Slot{});
        probe_generation_ = 0;
      }
      ++probe_generation_;
      if (probe_generation_ == 0) {
        std::memset(slots_.data(), 0, slots_.size() * sizeof(Slot));
        probe_generation_ = 1;
      }
    }
    ResumeInternal(ids, 0, prefix);
  }

  void ResumeInternal(const uint64_t* ids, size_t begin, size_t end) {
    if (dense_mode_) {
      const uint64_t tag = static_cast<uint64_t>(dense_generation_) << 32;
      for (size_t i = begin; i < end; ++i) {
        uint64_t& entry = dense_[ids[i] - base_];
        if ((entry >> 32) != dense_generation_) {
          const uint32_t index = static_cast<uint32_t>(unique_.size());
          entry = tag | index;
          RecordNewUnique(ids[i], i);
          occ_to_unique_[i] = index;
        } else {
          const uint32_t index = static_cast<uint32_t>(entry);
          occ_to_unique_[i] = index;
          ++counts_[index];
        }
      }
      return;
    }
    const uint64_t mask = slots_.size() - 1;
    for (size_t i = begin; i < end; ++i) {
      const uint64_t id = ids[i];
      uint64_t h = HashMix(id, /*seed=*/0x6e0bULL) & mask;
      for (;;) {
        Slot& slot = slots_[h];
        if (slot.generation != probe_generation_) {
          slot.generation = probe_generation_;
          slot.id = id;
          slot.unique_index = static_cast<uint32_t>(unique_.size());
          occ_to_unique_[i] = slot.unique_index;
          RecordNewUnique(id, i);
          break;
        }
        if (slot.id == id) {
          occ_to_unique_[i] = slot.unique_index;
          ++counts_[slot.unique_index];
          break;
        }
        h = (h + 1) & mask;
      }
    }
  }

  void RecordNewUnique(uint64_t id, size_t occurrence) {
    unique_.push_back(id);
    counts_.push_back(1);
    first_occurrence_.push_back(static_cast<uint32_t>(occurrence));
  }

  struct Slot {
    uint64_t id = 0;
    uint32_t generation = 0;
    uint32_t unique_index = 0;
  };

  // Probe-mode scratch.
  std::vector<Slot> slots_;
  uint32_t probe_generation_ = 0;
  // Dense-mode scratch: entry = generation<<32 | unique index.
  std::vector<uint64_t> dense_;
  uint32_t dense_generation_ = 0;
  uint64_t base_ = 0;
  bool dense_mode_ = false;

  std::vector<uint64_t> unique_;
  std::vector<uint32_t> counts_;
  std::vector<uint32_t> first_occurrence_;
  std::vector<uint32_t> occ_to_unique_;
};

}  // namespace cafe

#endif  // CAFE_EMBED_BATCH_DEDUP_H_
