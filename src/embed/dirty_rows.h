#ifndef CAFE_EMBED_DIRTY_ROWS_H_
#define CAFE_EMBED_DIRTY_ROWS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "io/serialize.h"

namespace cafe {

/// Epoch-stamped dirty set over a fixed physical row space [0, num_rows),
/// the building block of the stores' incremental-snapshot support.
///
/// Every mutation path calls Mark(row); the first Mark of a row per epoch
/// appends it to the dirty list (first-touch order, deterministic), later
/// Marks hit the stamp and return — one array load per touch, no hashing,
/// no allocation in steady state. Flush() opens a new epoch in O(1)
/// (amortized: a u32 epoch wrap after 4 billion flushes re-zeroes the
/// stamps), so the per-cut cost of the whole scheme is exactly the dirty
/// list SaveDelta walks.
///
/// The set is owned by a store and only ever touched on the trainer thread
/// (updates mark, the boundary-time SaveDelta reads + flushes), so it needs
/// no synchronization — the same single-writer contract the tables
/// themselves live under.
class DirtyRowSet {
 public:
  bool enabled() const { return enabled_; }

  /// Starts (or restarts — a rebase) tracking over `num_rows` rows. The
  /// dirty list comes back empty: changes are relative to the full base
  /// snapshot the caller captures at the same point.
  void Enable(uint64_t num_rows) {
    enabled_ = true;
    stamps_.assign(static_cast<size_t>(num_rows), 0);
    epoch_ = 1;
    dirty_.clear();
  }

  /// Stops tracking, releases the stamp array, and zeroes the epoch so a
  /// disabled set is bit-identical to a freshly constructed one. Enable()
  /// re-zeroes stamps and epoch itself, so the reset here is canonical
  /// state, not a correctness requirement for re-enabling.
  void Disable() {
    enabled_ = false;
    epoch_ = 0;
    stamps_.clear();
    stamps_.shrink_to_fit();
    dirty_.clear();
    dirty_.shrink_to_fit();
  }

  /// Records `row` as changed in the current epoch. Caller guards with
  /// enabled() so the disabled hot path pays one predictable branch.
  void Mark(uint64_t row) {
    uint32_t& stamp = stamps_[static_cast<size_t>(row)];
    if (stamp == epoch_) return;
    stamp = epoch_;
    dirty_.push_back(row);
  }

  /// Rows marked since the last Flush, in first-touch order.
  const std::vector<uint64_t>& rows() const { return dirty_; }

  /// Closes the epoch: the dirty list empties and previous stamps become
  /// stale without touching them.
  void Flush() {
    dirty_.clear();
    if (++epoch_ == 0) {  // u32 wrap: every stamp is stale anyway
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

 private:
  bool enabled_ = false;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamps_;  // per-row last-marked epoch
  std::vector<uint64_t> dirty_;   // rows marked this epoch
};

namespace delta_internal {

/// Serializes one fixed-width dirty table section: a count followed by
/// (row index, row_floats floats) records in first-touch order. The shared
/// shape of every store's big-array delta payload.
inline void WriteDirtyRows(io::Writer* writer, const DirtyRowSet& set,
                           const float* table, uint32_t row_floats) {
  writer->WriteU64(set.rows().size());
  for (const uint64_t row : set.rows()) {
    writer->WriteU64(row);
    writer->WriteBytes(table + row * row_floats,
                       row_floats * sizeof(float));
  }
}

/// Applies a section written by WriteDirtyRows onto `table` (num_rows rows
/// of row_floats floats), bounds-checking every record.
inline Status ReadDirtyRows(io::Reader* reader, float* table,
                            uint64_t num_rows, uint32_t row_floats,
                            const char* what) {
  uint64_t count = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&count));
  if (count > num_rows) {
    return Status::FailedPrecondition(
        std::string("delta dirty-row count exceeds table for ") + what);
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t row = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&row));
    if (row >= num_rows) {
      return Status::FailedPrecondition(
          std::string("delta dirty row out of range for ") + what);
    }
    CAFE_RETURN_IF_ERROR(reader->ReadBytes(table + row * row_floats,
                                           row_floats * sizeof(float)));
  }
  return Status::OK();
}

/// WriteDirtyRows for tables without a contiguous base pointer (the
/// RowPool-backed stores): `row_at(row)` resolves each dirty row. Framing
/// is identical to the pointer overload, so converting a store's backing
/// storage never changes its delta stream.
template <typename RowAtFn>
inline void WriteDirtyRowsAt(io::Writer* writer, const DirtyRowSet& set,
                             RowAtFn row_at, uint32_t row_floats) {
  writer->WriteU64(set.rows().size());
  for (const uint64_t row : set.rows()) {
    writer->WriteU64(row);
    writer->WriteBytes(row_at(row), row_floats * sizeof(float));
  }
}

/// ReadDirtyRows against a row accessor; bounds checks mirror the pointer
/// overload.
template <typename RowAtFn>
inline Status ReadDirtyRowsAt(io::Reader* reader, RowAtFn row_at,
                              uint64_t num_rows, uint32_t row_floats,
                              const char* what) {
  uint64_t count = 0;
  CAFE_RETURN_IF_ERROR(reader->ReadU64(&count));
  if (count > num_rows) {
    return Status::FailedPrecondition(
        std::string("delta dirty-row count exceeds table for ") + what);
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t row = 0;
    CAFE_RETURN_IF_ERROR(reader->ReadU64(&row));
    if (row >= num_rows) {
      return Status::FailedPrecondition(
          std::string("delta dirty row out of range for ") + what);
    }
    CAFE_RETURN_IF_ERROR(
        reader->ReadBytes(row_at(row), row_floats * sizeof(float)));
  }
  return Status::OK();
}

}  // namespace delta_internal

}  // namespace cafe

#endif  // CAFE_EMBED_DIRTY_ROWS_H_
