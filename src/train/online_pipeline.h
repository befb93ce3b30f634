#ifndef CAFE_TRAIN_ONLINE_PIPELINE_H_
#define CAFE_TRAIN_ONLINE_PIPELINE_H_

#include <memory>
#include <string>

#include "replicate/replica_manager.h"
#include "replicate/replication_source.h"
#include "serve/inference_server.h"
#include "serve/snapshot_manager.h"
#include "train/model_factory.h"
#include "train/store_factory.h"
#include "train/trainer.h"

namespace cafe {

/// Knobs for the continuously-updating train-WHILE-serve loop.
struct OnlinePipelineOptions {
  /// Trainer: chronological passes over the training split.
  size_t batch_size = 128;
  size_t passes = 1;
  /// Trainer steps between snapshot cuts (the rollout cadence).
  uint64_t snapshot_interval = 50;
  /// Capture the optimizer's adaptive state into every snapshot at the same
  /// step boundary (SnapshotManager::Options::capture_optimizer): the final
  /// snapshot then doubles as a full training-resume checkpoint
  /// (serve/snapshot_checkpoint.h).
  bool capture_optimizer = false;
  /// Serving shape (num_fields / num_numerical are filled from the dataset).
  /// Set max_queue_samples here for admission control under overload.
  InferenceServerOptions server;
  /// Client traffic: `num_clients` closed-loop threads submit
  /// `request_size`-sample slices of the test day for the whole run.
  size_t num_clients = 2;
  size_t request_size = 16;
  /// Per-client cap on outstanding futures (closed loop).
  size_t client_inflight = 8;
  uint64_t client_seed = 20240607;

  /// Replication: stream every cut generation (base + O(dirty) deltas) to
  /// this many in-process replicas over pipe transports. Each replica
  /// applies the frames into its own double-buffered resident stores and
  /// publishes local generations; the run waits for every replica to reach
  /// the final generation before returning. Per-replica lag is exported as
  /// replicate.replica<i>.lag_{generations,bytes} for the whole run.
  size_t replica_count = 0;
  /// How long the tail waits for each replica to catch up to the final
  /// generation before giving up with an error.
  uint64_t replica_wait_us = 10000000;
  /// Non-empty: each replica keeps a durable applied-state ledger under
  /// <replica_durable_dir>/replica<i> and rejoins from it after a restart
  /// (kHello carries the restored generation; the source serves only the
  /// deltas since, when its history ring still covers them).
  std::string replica_durable_dir;
  /// Source-side flow control: per-link send-queue high watermarks.
  /// Crossing either marks the link stale — deltas stop enqueuing and the
  /// link rejoins via a fresh base once its queue drains — so source
  /// memory stays O(watermark x replicas) under any consumer speed.
  uint64_t replica_queue_high_bytes = 256ull << 20;
  uint64_t replica_queue_high_frames = 1024;
  /// Encoded delta generations the source retains for hello(G) catch-up
  /// (0 = every rejoin gets a full base).
  uint64_t replica_delta_history = 64;
  /// Heartbeat period for BOTH ends of every link (0 = no heartbeats or
  /// liveness timeouts; the transports report death themselves).
  uint64_t replica_heartbeat_interval_us = 0;
  /// Liveness window: each end severs a link silent past this (0 = never).
  uint64_t replica_liveness_timeout_us = 0;

  /// Telemetry. stats_port >= 0 serves the metrics registry live over
  /// loopback HTTP for the whole run (obs::StatsEndpoint; 0 binds an
  /// ephemeral port, reported in OnlinePipelineResult::stats_port).
  /// -1 = no endpoint.
  int stats_port = -1;
  /// Non-empty: a sampler thread appends one JSON object per line to this
  /// file every timeline_interval_ms for the duration of the run —
  /// {t_us, step, generation, loss_ema, queue_depth, shed_rate,
  /// requests_total} — monotone in step and generation by construction
  /// (both are sampled from monotone sources).
  std::string timeline_path;
  uint64_t timeline_interval_ms = 50;
  /// Non-empty: the full obs::DumpJsonSnapshot of the registry is written
  /// here after the final install (counters/gauges/histograms + trace
  /// tail) — the pull-API complement of the live endpoint.
  std::string metrics_json_path;
};

struct OnlinePipelineResult {
  /// Online training metric (paper's average train loss over the run).
  double avg_train_loss = 0.0;
  uint64_t train_steps = 0;
  double train_seconds = 0.0;
  /// Generations installed into the server, INCLUDING the initial one the
  /// server started on. The final generation always carries the fully
  /// trained state.
  uint64_t snapshots_installed = 0;
  /// Client-side outcome counts: served responses vs fast-fail rejections
  /// (admission control).
  uint64_t requests_ok = 0;
  uint64_t requests_rejected = 0;
  double serve_seconds = 0.0;
  LatencySummary latency;
  InferenceServer::Stats server_stats;
  SnapshotManager::Stats snapshot_stats;
  /// The last snapshot installed (the fully trained state) — callers can
  /// verify it against an offline freeze or keep serving from it.
  std::shared_ptr<const ServingSnapshot> final_snapshot;
  /// Replication outcome (replica_count > 0): source totals + per-replica
  /// stream stats, sampled AFTER every replica reached the final
  /// generation. replica_stats[i].generation equals the source's head.
  replicate::ReplicationSource::Stats replication_stats;
  std::vector<replicate::ReplicaManager::Stats> replica_stats;
  /// Bound port of the live stats endpoint (0 when stats_port was -1).
  int stats_port = 0;
  /// Timeline lines appended (0 when timeline_path was empty).
  uint64_t timeline_samples = 0;
};

/// The continuously-updating service in miniature — the online counterpart
/// of RunServingPipeline's train-then-serve:
///
///   1. build the live store + model and cut generation 1 (quiesced);
///   2. start a hot-reload InferenceServer over a SwappableStore, with
///      `num_clients` closed-loop clients immediately driving traffic;
///   3. train on the MAIN thread while a rollout thread repeatedly cuts
///      consistent snapshots (SnapshotManager's step-boundary copy; the
///      trainer pauses only for the copy, the server never drains) and
///      hot-swaps them into the server mid-traffic;
///   4. after the last step, install one final snapshot of the fully
///      trained state, then stop the clients and drain.
///
/// Every response the clients receive reflects exactly one snapshot
/// generation (tests/hot_swap_test.cc asserts no tearing), and requests
/// beyond the admission cap fast-fail with ResourceExhausted rather than
/// stretching latency.
StatusOr<OnlinePipelineResult> RunOnlinePipeline(
    const std::string& store_name, const StoreFactoryContext& context,
    const std::string& model_name, const ModelConfig& model_config,
    const SyntheticCtrDataset& data, const OnlinePipelineOptions& options);

}  // namespace cafe

#endif  // CAFE_TRAIN_ONLINE_PIPELINE_H_
