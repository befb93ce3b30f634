#ifndef CAFE_REPLICATE_REPLICA_MANAGER_H_
#define CAFE_REPLICATE_REPLICA_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"
#include "replicate/durable_log.h"
#include "replicate/frame.h"
#include "replicate/transport.h"
#include "serve/double_buffer.h"
#include "serve/swappable_store.h"

namespace cafe {
namespace replicate {

/// The replica end of a replication link: consumes the frame stream from a
/// ReplicationSource and republishes each generation locally, through the
/// same DoubleBuffer (serve/double_buffer.h) the source-side
/// SnapshotManager publishes through — two resident buffer stores, delta
/// replay into the non-serving one, FrozenStore::AdoptShared freeze,
/// lease-gated reclaim — feeding a local SwappableStore that a local
/// InferenceServer serves from.
///
/// Lifecycle, driven entirely by the stream:
///  - Start() restores from the durable ledger when one is configured
///    (serving resumes BEFORE the link is up), then announces with
///    kHello(last applied generation); the source answers with just the
///    deltas since — or a kBase when the replica is older than the
///    source's history ring. A cold start is kHello(0) -> kBase.
///  - kDelta frames must be contiguous (generation == current + 1). A gap
///    (a dropped frame) poisons the chain: the replica stops applying,
///    counts the damage, and sends ONE kResync; the next kBase rebases it.
///  - A corrupt/truncated frame surfaces from the FrameParser as kCorrupt
///    and takes the same poison-once/resync-once path.
///  - Frames at or below the current generation (reordered or raced with a
///    resync) are skipped as stale — never applied, never poison.
///  - Every applied generation is acked (kAck) so the source can export
///    this replica's lag; applied frames are appended to the durable
///    ledger, which self-compacts (delta tail -> fresh base) past
///    Options::durable_compact_after_deltas.
///  - When the stream dies and Options::reconnect is set, the apply loop
///    redials with exponential backoff + jitter and greets the source
///    with its current generation — the rejoin handshake above.
///  - With heartbeats enabled, a watchdog thread sends kHeartbeat each
///    interval and severs the link itself when NOTHING has arrived for
///    liveness_timeout_us (a half-open link looks exactly like silence),
///    which feeds the reconnect path.
///
/// The apply thread is the only mutator of the buffers, so unlike the
/// source-side manager there is no publish-turn sequencing.
class ReplicaManager {
 public:
  struct Options {
    /// How long a publish waits for the target buffer's lease before
    /// retiring it to the holder (O(store) rebuild fallback).
    uint64_t reclaim_wait_us = 20000;
    /// Label for this replica's obs metrics (replicate.<name>.*).
    std::string name = "replica";
    /// Directory for the durable applied-state ledger ("" = volatile
    /// replica: every restart is a cold join).
    std::string durable_dir;
    /// Fold the durable delta tail into a fresh base (one SaveState of the
    /// serving buffer) once it grows past this many deltas.
    uint64_t durable_compact_after_deltas = 64;
    /// Dial a replacement channel after the stream dies. Unavailable /
    /// DeadlineExceeded results are retried with backoff; anything else
    /// gives up. Null = no reconnection (stream end is final).
    std::function<StatusOr<std::unique_ptr<ByteChannel>>()> reconnect;
    uint64_t reconnect_backoff_initial_us = 50'000;
    uint64_t reconnect_backoff_max_us = 2'000'000;
    uint32_t reconnect_max_attempts = 8;
    /// Jitter seed (backoff spreads as backoff * [1, 1.5)).
    uint64_t reconnect_seed = 0x9e3779b97f4a7c15ull;
    /// Replica -> source heartbeat period (0 = no heartbeats).
    uint64_t heartbeat_interval_us = 0;
    /// Sever the link after this long without any inbound byte, forcing a
    /// reconnect (0 = trust the transport to report death).
    uint64_t liveness_timeout_us = 0;
  };

  /// `factory` must build stores of the source's exact configuration (the
  /// same factory contract as SnapshotManager). The channel is the replica
  /// end of a transport whose source end is registered with
  /// ReplicationSource::AddReplica.
  ReplicaManager(FreshStoreFactory factory,
                 std::unique_ptr<ByteChannel> channel);
  ReplicaManager(FreshStoreFactory factory,
                 std::unique_ptr<ByteChannel> channel,
                 const Options& options);
  ~ReplicaManager();

  /// Restores durable state (if any), sends kHello, and starts the apply
  /// (+ optional watchdog) threads. Call once.
  Status Start();

  /// Blocks until the local serving generation reaches `generation`, the
  /// stream dies for good, or `timeout_us` elapses (DeadlineExceeded).
  /// Returns the fatal status if the apply loop stopped on one.
  Status WaitForGeneration(uint64_t generation, uint64_t timeout_us);

  /// The local serving hub (hand to InferenceServer::Start). Null until
  /// the first generation is published; WaitForGeneration first.
  SwappableStore* swappable() const;

  /// Source generation currently serving locally (0 = none yet).
  uint64_t generation() const;

  struct Stats {
    uint64_t frames_received = 0;
    uint64_t bases_applied = 0;
    uint64_t deltas_applied = 0;
    /// Frames at or below the current generation, skipped (reorder/race).
    uint64_t stale_skipped = 0;
    /// Deltas dropped while awaiting a rebase after a poison.
    uint64_t poisoned_skipped = 0;
    uint64_t corrupt_frames = 0;
    /// Deltas that arrived non-contiguous (a dropped frame upstream).
    uint64_t gap_frames = 0;
    /// kResync requests sent (one per poison transition).
    uint64_t resyncs_requested = 0;
    /// Publishes that hit the lease-retire fallback.
    uint64_t retired_buffers = 0;
    uint64_t bytes_applied = 0;
    /// Successful channel redials (replicate.<name>.reconnects_total).
    uint64_t reconnects = 0;
    /// Durable-ledger restores at Start (0 or 1).
    uint64_t restores = 0;
    /// Generation the ledger restored to serving (0 = cold start).
    uint64_t restored_generation = 0;
    /// Ledger writes that failed (replication continues; rejoin degrades
    /// to whatever chain survived).
    uint64_t durable_persist_failures = 0;
    uint64_t heartbeats_received = 0;
    uint64_t generation = 0;
    uint64_t train_step = 0;
    /// First error that permanently stopped the apply loop (OK = healthy).
    Status fatal;
  };
  Stats stats() const;

  /// Closes the channel (the source sees EOF) and joins the apply thread.
  /// Idempotent; the destructor calls it.
  void Shutdown();

 private:
  void ApplyLoop();
  /// Reads the current channel until it ends; returns a fatal status to
  /// stop the loop for good, OK to try reconnecting.
  Status DrainStream();
  /// Redials with exponential backoff + jitter. False = give up (shutdown,
  /// attempts exhausted, or a non-retriable dial error).
  bool ReconnectWithBackoff();
  void WatchdogLoop();
  /// Dispatches one parsed frame; returns a fatal status to stop the loop.
  Status HandleFrame(Frame frame);
  /// Replays a restored ledger chain into serving state. On failure the
  /// buffers are reset for a clean cold join.
  void RestoreFromDurable();
  /// Appends an applied frame to the ledger (failure = counted, not fatal)
  /// and compacts when the delta tail is long. Apply thread only.
  void PersistFrame(const Frame& frame);
  void MaybeCompactDurable(uint64_t generation, uint64_t train_step);
  /// Publishes `generation` (its payload already queued to buffers_) into
  /// the local SwappableStore. `applied` (bases_applied / deltas_applied /
  /// restores) is bumped in the SAME critical section that exposes the
  /// generation, so a stats() reader woken by WaitForGeneration never sees
  /// the count lag the generation. Apply thread only.
  Status PublishGeneration(uint64_t generation, uint64_t train_step,
                           uint64_t Stats::*applied);
  /// Transition into the poisoned state and request a rebase (once).
  void EnterResync(const char* why);
  void SendControl(FrameKind kind, uint64_t generation);

  Options options_;

  std::thread apply_thread_;
  std::thread watchdog_thread_;
  bool started_ = false;

  // Apply-thread-only state (no lock needed).
  DoubleBuffer buffers_;
  uint64_t current_generation_ = 0;
  bool awaiting_base_ = true;  // poisoned or never synced: deltas skipped
  bool have_aux_ = false;
  uint64_t aux_generation_ = 0;
  AuxState aux_;
  std::unique_ptr<DurableReplicaLog> durable_;
  uint64_t jitter_state_ = 0;  // backoff jitter PRNG state

  /// Serializes channel Writes only (frame bytes must not interleave).
  /// NEVER taken by a close path: Shutdown and the watchdog copy the
  /// channel pointer under channel_mu_ and Close() WITHOUT send_mu_, so a
  /// Write blocked on transport backpressure (stalled peer, full socket
  /// buffer) cannot deadlock them — Close is what unblocks that Write.
  std::mutex send_mu_;
  /// Guards the channel_ POINTER (reconnect swaps it; writers and close
  /// paths copy it). Never held across a Write/Read/Close. shared_ptr so
  /// an in-flight Write on the pre-reconnect channel stays valid.
  mutable std::mutex channel_mu_;
  std::shared_ptr<ByteChannel> channel_;
  /// Steady-clock stamp of the last inbound byte (watchdog liveness).
  std::atomic<uint64_t> last_recv_us_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  bool stream_done_ = false;  // apply loop exited
  std::unique_ptr<SwappableStore> swappable_;
  Stats stats_;

  obs::Gauge* obs_generation_ = nullptr;
  obs::Counter* obs_corrupt_ = nullptr;
  obs::Counter* obs_gaps_ = nullptr;
  obs::Counter* obs_resyncs_ = nullptr;
  obs::Counter* obs_bytes_applied_ = nullptr;
  obs::Counter* obs_reconnects_ = nullptr;
};

}  // namespace replicate
}  // namespace cafe

#endif  // CAFE_REPLICATE_REPLICA_MANAGER_H_
