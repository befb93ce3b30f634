#ifndef CAFE_REPLICATE_REPLICATION_SOURCE_H_
#define CAFE_REPLICATE_REPLICATION_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "replicate/frame.h"
#include "replicate/transport.h"
#include "serve/snapshot_manager.h"

namespace cafe {
namespace replicate {

/// The trainer-side end of the replication tier: subscribes to a
/// SnapshotManager's boundary payloads (Options::payload_observer ->
/// MakeObserver()) and streams them as fingerprinted frames to N replica
/// links — the same O(dirty) SaveDelta bytes the local double-buffer
/// publish replays, shipped instead of recomputed.
///
/// The source keeps its own resident HEAD store that folds in every
/// payload (LoadState/LoadDelta, generation order). That head is what
/// makes the lifecycle cheap to serve:
///  - late joiner (kHello 0) or poisoned replica (kResync): SaveState the
///    head NOW and send it as a kBase at the head generation — no trainer
///    involvement, no payload replay from generation 1;
///  - a RESTARTING replica (kHello G > 0) is served only the deltas since
///    G, from a bounded generation-indexed delta history ring kept beside
///    the head, falling back to a full base when G predates the ring;
///  - replicas that keep up just get the per-cut frames fanned out.
///
/// Flow control: every link owns a bounded send queue (byte + frame
/// watermarks) drained by a dedicated sender thread, so Publish() NEVER
/// blocks on a slow consumer and source memory is O(watermark x links)
/// regardless of consumer speed. A link that crosses its watermark goes
/// STALE: deltas stop enqueuing for it, and once its queue drains the
/// sender re-enters it through the same rebase path a kResync takes
/// (fresh base at the head generation) instead of replaying an unbounded
/// backlog.
///
/// Liveness (opt-in, heartbeat_interval_us / liveness_timeout_us): a
/// maintenance thread enqueues kHeartbeat frames so replicas can detect a
/// dead source, and prunes links that have been silent past the timeout
/// (replica-side acks/heartbeats count as life signs).
///
/// Observer calls may arrive out of generation order (concurrent Cut()
/// callers race after the claim); a reorder map drains them contiguously,
/// which also keeps the head store's delta chain exact.
///
/// Per-replica state is exported through the obs registry:
///   replicate.replica<i>.lag_generations       (head gen - last acked gen)
///   replicate.replica<i>.lag_bytes             (stream bytes past the ack)
///   replicate.source.link<i>.send_queue_bytes  (queued, not yet written)
///   replicate.source.link<i>.send_queue_frames
/// plus source totals (replicate.source.*, including
/// replicate.source.queue_overflow_total).
class ReplicationSource {
 public:
  struct Options {
    /// Capture dense weights / optimizer state sidecars (kAux frames) when
    /// the boundary carries them.
    bool ship_aux = true;
    /// Per-link send-queue high watermarks. Crossing EITHER marks the link
    /// stale (stop enqueuing deltas; rebase once drained). Bases and the
    /// sidecars they need always enqueue — a rebase must be able to leave.
    uint64_t send_queue_high_bytes = 256ull << 20;
    uint64_t send_queue_high_frames = 1024;
    /// Encoded delta frames retained for hello(G) catch-up. 0 disables the
    /// ring (every rejoin gets a full base).
    uint64_t delta_history_generations = 64;
    /// Source -> replica heartbeat period (0 = no heartbeats).
    uint64_t heartbeat_interval_us = 0;
    /// Prune a link after this long without any inbound frame (0 = never).
    uint64_t liveness_timeout_us = 0;
  };

  /// `factory` must build stores of the live store's exact configuration
  /// (the SnapshotManager contract; pass the same factory).
  explicit ReplicationSource(FreshStoreFactory factory);
  ReplicationSource(FreshStoreFactory factory, const Options& options);
  ~ReplicationSource();

  /// The callback to install as SnapshotManager::Options::payload_observer.
  /// Valid for the source's lifetime.
  SnapshotManager::PayloadObserver MakeObserver();

  /// Registers a replica connection and starts its reader + sender
  /// threads. The replica end of the transport goes to a ReplicaManager.
  /// Safe before or after publishing starts; a link added late is served a
  /// base (or a delta catch-up) when its kHello arrives.
  Status AddReplica(std::unique_ptr<ByteChannel> channel);

  /// Feeds one boundary payload (what the observer forwards to). Never
  /// blocks on link backpressure.
  void Publish(const SnapshotManager::BoundaryPayload& boundary);

  struct ReplicaStats {
    bool alive = false;
    /// Last generation the replica acked as serving (a hello(G) counts).
    uint64_t acked_generation = 0;
    /// head_generation - acked_generation at the last update.
    uint64_t lag_generations = 0;
    /// Stream bytes sent past the acked generation.
    uint64_t lag_bytes = 0;
    /// kBase frames sent to this link (1 = initial sync only).
    uint64_t base_resyncs = 0;
    uint64_t bytes_sent = 0;
    /// Encoded frames waiting in this link's bounded send queue.
    uint64_t send_queue_bytes = 0;
    uint64_t send_queue_frames = 0;
    /// Times this link crossed its watermark and went stale.
    uint64_t queue_overflows = 0;
    /// hello(G) rejoins served from the delta history ring (no base).
    uint64_t delta_catchups = 0;
    /// Stale right now: watermark crossed, deltas paused, rebase pending.
    bool stale = false;
  };
  struct Stats {
    uint64_t head_generation = 0;
    uint64_t generations_published = 0;
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t base_resyncs = 0;
    /// Watermark crossings across all links.
    uint64_t queue_overflows = 0;
    /// Rejoins served as deltas from the history ring.
    uint64_t delta_catchups = 0;
    /// Links dropped by the liveness watchdog.
    uint64_t links_pruned = 0;
    /// Delta generations currently held in the history ring.
    uint64_t history_generations = 0;
    /// First error that stopped the head store's apply chain (OK = healthy).
    Status head_status;
    std::vector<ReplicaStats> replicas;
  };
  Stats stats() const;

  uint64_t head_generation() const;

  /// Closes every link and joins all threads. Idempotent; the destructor
  /// calls it. Replica ends see EOF.
  void Shutdown();

 private:
  struct Link {
    std::unique_ptr<ByteChannel> channel;
    std::thread reader;
    std::thread sender;
    size_t index = 0;
    bool alive = true;
    /// False until this link has a base (its frames would be unreadable
    /// before one); deltas are only fanned out to caught-up links.
    bool caught_up = false;
    /// The sender owes this link a fresh base once its queue drains: set
    /// by kHello/kResync, by a watermark overflow, and by a hello(G) the
    /// history ring cannot cover.
    bool needs_base = false;
    /// Watermark crossed; cleared when the rebase is enqueued.
    bool stale = false;
    /// Encoded frames awaiting the sender. Bounded by the watermarks.
    std::deque<std::string> send_queue;
    uint64_t queued_bytes = 0;
    uint64_t acked_generation = 0;
    uint64_t last_recv_us = 0;  // steady-clock stamp of last inbound frame
    uint64_t base_resyncs = 0;
    uint64_t bytes_sent = 0;
    uint64_t queue_overflows = 0;
    uint64_t delta_catchups = 0;
    obs::Gauge* lag_generations = nullptr;
    obs::Gauge* lag_bytes = nullptr;
    obs::Gauge* queue_bytes_gauge = nullptr;
    obs::Gauge* queue_frames_gauge = nullptr;
  };

  /// One reordered boundary awaiting its drain turn.
  struct PendingEntry {
    bool is_delta = false;
    std::shared_ptr<const std::string> payload;
    uint64_t train_step = 0;
    std::string aux;  // encoded AuxState ("" = none)
  };

  /// One generation of the delta history ring: the encoded frames exactly
  /// as a live link would have received them.
  struct HistoryEntry {
    uint64_t generation = 0;
    std::string aux_bytes;  // "" = no sidecar that generation
    std::string data_bytes;
  };

  void ReaderLoop(Link* link);
  void SenderLoop(Link* link);
  void MaintenanceLoop();
  /// Applies contiguous pending entries to the head store and fans the
  /// frames out to caught-up links. Caller holds mu_.
  void DrainLocked();
  /// Admission control: enqueues `bytes` unless the watermark says no.
  /// Returns false (and marks the link stale if `is_data`) on refusal.
  /// Caller holds mu_.
  bool EnqueueLocked(Link* link, const std::string& bytes, bool is_data);
  /// Unconditional enqueue (bases and their sidecars). Caller holds mu_.
  void EnqueueForcedLocked(Link* link, std::string bytes);
  /// SaveStates the head and enqueues it (aux first) as a kBase; marks the
  /// link caught up. Called by the SENDER with an empty queue, and by the
  /// hello path when there is already a head. Caller holds mu_.
  void PrepareBaseLocked(Link* link);
  /// True when the ring contiguously covers (G, head]: hello(G) can be
  /// served as deltas. Caller holds mu_.
  bool HistoryCoversLocked(uint64_t generation) const;
  void UpdateLagLocked(Link* link);
  void UpdateQueueGaugesLocked(Link* link);

  FreshStoreFactory factory_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable send_cv_;  // wakes senders (shared; N is small)
  std::condition_variable maintenance_cv_;
  bool shutdown_ = false;
  std::unique_ptr<EmbeddingStore> head_;
  Status head_status_;
  uint64_t head_generation_ = 0;
  uint64_t head_step_ = 0;
  /// Aux sidecar of the head generation (encoded; "" = none) — resent with
  /// every base so a rejoining replica gets matching dense weights.
  std::string head_aux_;
  std::map<uint64_t, PendingEntry> pending_;
  /// Contiguous encoded deltas ending at head_generation_ (cleared by a
  /// base publish, pruned to delta_history_generations).
  std::deque<HistoryEntry> history_;
  /// generation -> cumulative stream bytes after its frames; lag_bytes for
  /// an ack at g is cumulative_bytes_ - bytes_at_[g]. Pruned to a window.
  std::map<uint64_t, uint64_t> bytes_at_;
  uint64_t cumulative_bytes_ = 0;
  uint64_t generations_published_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t base_resyncs_ = 0;
  uint64_t queue_overflows_ = 0;
  uint64_t delta_catchups_ = 0;
  uint64_t links_pruned_ = 0;
  std::vector<std::unique_ptr<Link>> links_;
  std::thread maintenance_;

  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_resyncs_ = nullptr;
  obs::Counter* obs_overflows_ = nullptr;
  obs::Gauge* obs_head_generation_ = nullptr;
};

}  // namespace replicate
}  // namespace cafe

#endif  // CAFE_REPLICATE_REPLICATION_SOURCE_H_
