#ifndef CAFE_SERVE_DOUBLE_BUFFER_H_
#define CAFE_SERVE_DOUBLE_BUFFER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "embed/embedding_store.h"
#include "serve/swappable_store.h"

namespace cafe {

/// Builds a fresh, untrained store of the published stores' exact
/// configuration (the checkpoint-restore contract: state is copied into it
/// via LoadState).
using FreshStoreFactory =
    std::function<StatusOr<std::unique_ptr<EmbeddingStore>>()>;

/// The O(dirty) publish path: two resident ping-pong buffer stores that
/// turn a stream of SaveState bases and SaveDeltas into frozen serving
/// generations. SnapshotManager (source side) and
/// replicate::ReplicaManager (replica side) both publish through it.
///
///  - Queue: every payload is queued to BOTH buffers (Enqueue). A base
///    supersedes everything queued before it, so it clears both queues.
///  - Publish: the target is the buffer NOT serving the current
///    generation (slots alternate per publish, not by generation parity:
///    a replica rebase may jump the generation by any amount). Its lagging
///    queue — the payloads it missed while the previous-but-one generation
///    was pinned to it — is drained via LoadDelta/LoadState, and the
///    buffer is frozen in place (FrozenStore::AdoptShared, no copy) while
///    the previous generation keeps serving from the other buffer.
///  - Reclaim: each published snapshot carries a lease on its buffer,
///    released by whoever drops the snapshot's last reference (the
///    SwappableStore at Install, or the last in-flight PinScope). A publish
///    waits up to `reclaim_wait_us` for the target's lease; past that it
///    RETIRES the buffer to its holder (shared ownership keeps it alive)
///    and starts a replacement: a factory-fresh store when the queue holds
///    a base, else an O(store) clone of the serving buffer's SaveState.
///
/// Every publish is byte-identical to SaveState at its generation, with or
/// without retires. Enqueue, Publish, Reset and the serving accessors must
/// be called by one thread at a time (the caller's publish turn); lease
/// releases may come from any thread, and a snapshot may outlive this
/// object.
class DoubleBuffer {
 public:
  DoubleBuffer(FreshStoreFactory factory, uint64_t reclaim_wait_us);

  /// Queues one payload (a SaveState base, or a SaveDelta relative to
  /// generation - 1) to both buffers. `payload` is shared, never copied.
  void Enqueue(uint64_t generation, bool is_delta,
               std::shared_ptr<const std::string> payload);

  /// What one Publish cost.
  struct PublishInfo {
    /// Payload bytes replayed into the target buffer (O(dirty) in steady
    /// state) and the time the replay took.
    uint64_t apply_bytes = 0;
    double apply_us = 0.0;
    /// The target's lease was still held past reclaim_wait_us. Set even
    /// when the publish then failed.
    bool retired = false;
  };

  /// Publishes `generation` (its payload must already be queued): sets
  /// `out->store` and `out->buffer_lease`; the caller fills the rest of
  /// the snapshot.
  Status Publish(uint64_t generation, ServingSnapshot* out, PublishInfo* info);

  /// The buffer the last successful Publish froze (null before the first)
  /// and the generation it holds. The store is frozen, so const reads such
  /// as SaveState are safe beside concurrent serving.
  const EmbeddingStore* serving_store() const;
  uint64_t serving_generation() const;

  /// Drops both buffers and their queues (outstanding snapshots keep their
  /// buffers): the next publish starts from a base.
  void Reset();

 private:
  /// One queued payload awaiting replay into a buffer.
  struct PendingPayload {
    uint64_t generation = 0;
    bool is_delta = false;
    std::shared_ptr<const std::string> payload;
  };

  /// One resident ping-pong buffer.
  struct BufferSlot {
    std::shared_ptr<EmbeddingStore> store;  // null until first materialized
    /// Generation whose state the store currently holds.
    uint64_t state_gen = 0;
    /// Payloads newer than state_gen, oldest first (the lagging queue).
    std::deque<PendingPayload> pending;
  };

  /// Lease bookkeeping shared with outstanding snapshots' lease deleters;
  /// lives in a shared_ptr so a snapshot outliving the buffers releases
  /// against valid memory.
  struct LeaseState {
    std::mutex mu;
    std::condition_variable cv;
    bool leased[2] = {false, false};
    /// Bumped per lease hand-out AND per retire: a retired (stale) lease's
    /// eventual release compares its token against this and no-ops, so it
    /// can never clear a lease the replacement buffer handed out later.
    uint64_t epoch[2] = {0, 0};
  };

  static constexpr size_t kNoSlot = 2;

  /// Factory call + null check.
  StatusOr<std::unique_ptr<EmbeddingStore>> MakeFreshStore();

  /// Waits up to reclaim_wait_us for `slot`'s lease, else retires the
  /// buffer to its holder and starts a replacement (see the class comment).
  Status ReclaimOrRetire(size_t slot, uint64_t generation, bool* retired);

  FreshStoreFactory factory_;
  uint64_t reclaim_wait_us_;
  BufferSlot slots_[2];
  size_t serving_ = kNoSlot;
  std::shared_ptr<LeaseState> leases_;
};

}  // namespace cafe

#endif  // CAFE_SERVE_DOUBLE_BUFFER_H_
