#include "train/online_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "obs/exposition.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/stats_endpoint.h"
#include "obs/trace.h"
#include "serve/swappable_store.h"

namespace cafe {

StatusOr<OnlinePipelineResult> RunOnlinePipeline(
    const std::string& store_name, const StoreFactoryContext& context,
    const std::string& model_name, const ModelConfig& model_config,
    const SyntheticCtrDataset& data, const OnlinePipelineOptions& options) {
  if (options.batch_size == 0 || options.passes == 0) {
    return Status::InvalidArgument(
        "online pipeline needs batch_size >= 1 and passes >= 1");
  }
  if (options.request_size == 0 || options.num_clients == 0) {
    return Status::InvalidArgument(
        "online pipeline needs request_size >= 1 and num_clients >= 1");
  }
  const size_t test_begin = data.train_size();
  if (data.num_samples() < test_begin + options.request_size) {
    return Status::InvalidArgument(
        "online pipeline needs a test day of at least request_size samples");
  }

  OnlinePipelineResult result;

  // Live training stack.
  auto live_store = MakeStore(store_name, context);
  if (!live_store.ok()) return live_store.status();
  auto live_model = MakeModel(model_name, model_config, live_store->get());
  if (!live_model.ok()) return live_model.status();

  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = options.snapshot_interval;
  manager_options.capture_optimizer = options.capture_optimizer;

  // Replication tier: declared BEFORE the manager so the source outlives
  // the observer installed into it. Replicas announce (kHello) now; the
  // initial cut below serves their bases.
  std::unique_ptr<replicate::ReplicationSource> replication;
  std::vector<std::unique_ptr<replicate::ReplicaManager>> replicas;
  if (options.replica_count > 0) {
    replicate::ReplicationSource::Options source_options;
    source_options.send_queue_high_bytes = options.replica_queue_high_bytes;
    source_options.send_queue_high_frames = options.replica_queue_high_frames;
    source_options.delta_history_generations = options.replica_delta_history;
    source_options.heartbeat_interval_us =
        options.replica_heartbeat_interval_us;
    source_options.liveness_timeout_us = options.replica_liveness_timeout_us;
    replication = std::make_unique<replicate::ReplicationSource>(
        [&store_name, &context]() { return MakeStore(store_name, context); },
        source_options);
    manager_options.payload_observer = replication->MakeObserver();
    for (size_t i = 0; i < options.replica_count; ++i) {
      replicate::TransportPair pair = replicate::MakePipeTransport();
      CAFE_RETURN_IF_ERROR(replication->AddReplica(std::move(pair.source)));
      replicate::ReplicaManager::Options replica_options;
      replica_options.name = "replica" + std::to_string(i);
      if (!options.replica_durable_dir.empty()) {
        replica_options.durable_dir =
            options.replica_durable_dir + "/replica" + std::to_string(i);
      }
      replica_options.heartbeat_interval_us =
          options.replica_heartbeat_interval_us;
      replica_options.liveness_timeout_us =
          options.replica_liveness_timeout_us;
      replicas.push_back(std::make_unique<replicate::ReplicaManager>(
          [&store_name, &context]() { return MakeStore(store_name, context); },
          std::move(pair.replica), replica_options));
      CAFE_RETURN_IF_ERROR(replicas.back()->Start());
    }
  }

  SnapshotManager manager(
      live_store->get(), live_model->get(),
      [&store_name, &context]() { return MakeStore(store_name, context); },
      manager_options);

  // Generation 1: the untrained-but-consistent state the server opens on
  // (traffic starts flowing before the first gradient lands, as it would
  // in a warm-started production rollout).
  auto initial = manager.Cut();
  if (!initial.ok()) return initial.status();
  SwappableStore swap(std::move(initial).value());

  InferenceServerOptions server_options = options.server;
  server_options.num_fields = data.num_fields();
  server_options.num_numerical = data.config().num_numerical;
  auto server = InferenceServer::Start(
      server_options,
      [&model_name, &model_config, &swap](size_t)
          -> StatusOr<std::unique_ptr<RecModel>> {
        // Replicas are built over the swappable store; their dense weights
        // are overwritten from the pinned snapshot on first pick-up, so no
        // checkpoint restore is needed here.
        return MakeModel(model_name, model_config, &swap);
      },
      &swap);
  if (!server.ok()) return server.status();
  InferenceServer* server_raw = server->get();

  // Live scrape endpoint: GET /metrics (Prometheus text) and /metrics.json
  // over loopback for the whole run. Stopped by its destructor on every
  // return path.
  std::unique_ptr<obs::StatsEndpoint> endpoint;
  if (options.stats_port >= 0) {
    auto started = obs::StatsEndpoint::Start(options.stats_port);
    if (!started.ok()) return started.status();
    endpoint = std::move(started).value();
    result.stats_port = endpoint->port();
  }

  // Timeline sampler: one JSON object per line, every timeline_interval_ms.
  // Both `step` and `generation` are read from monotone sources (the
  // trainer's published step counter, the server's install counter), so the
  // timeline is monotone in both by construction. The stop flag is read
  // BEFORE the sample, so the final line — written after the tail install —
  // reflects the fully trained state.
  std::atomic<uint64_t> published_step{0};
  std::atomic<bool> stop_timeline{false};
  std::atomic<uint64_t> timeline_samples{0};
  Status timeline_status;  // written only by the sampler, read after join
  std::thread timeline;
  if (!options.timeline_path.empty()) {
    timeline = std::thread([&]() {
      std::ofstream out(options.timeline_path, std::ios::trunc);
      if (!out) {
        timeline_status = Status::Internal("cannot open timeline file: " +
                                           options.timeline_path);
        return;
      }
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      obs::Gauge* const loss_ema_gauge = registry.GetGauge("train.loss_ema");
      obs::Gauge* const shed_rate_gauge = registry.GetGauge("serve.shed_rate");
      for (;;) {
        const bool last = stop_timeline.load(std::memory_order_acquire);
        const InferenceServer::Stats stats = server_raw->stats();
        obs::JsonWriter line;
        line.BeginObject();
        line.Field("t_us", obs::NowMicros());
        line.Field("step", published_step.load(std::memory_order_acquire));
        line.Field("generation", stats.snapshot_generation);
        line.Field("loss_ema", loss_ema_gauge->Value());
        line.Field("queue_depth", static_cast<uint64_t>(stats.queue_depth));
        line.Field("shed_rate", shed_rate_gauge->Value());
        line.Field("requests_total", stats.requests);
        line.EndObject();
        out << line.str() << '\n';
        timeline_samples.fetch_add(1, std::memory_order_relaxed);
        if (last) break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.timeline_interval_ms));
      }
    });
  }
  // Every exit joins the sampler; error paths just haven't set result yet.
  struct TimelineJoiner {
    std::atomic<bool>* stop;
    std::thread* thread;
    ~TimelineJoiner() {
      stop->store(true, std::memory_order_release);
      if (thread->joinable()) thread->join();
    }
  } timeline_joiner{&stop_timeline, &timeline};

  // Client traffic: closed-loop threads hammering test-day slices from
  // before the first training step until after the final swap.
  std::atomic<bool> stop_clients{false};
  std::atomic<uint64_t> client_ok{0};
  std::atomic<uint64_t> client_rejected{0};
  const size_t test_span =
      data.num_samples() - test_begin - options.request_size + 1;
  WallTimer serve_timer;
  std::vector<std::thread> clients;
  clients.reserve(options.num_clients);
  for (size_t c = 0; c < options.num_clients; ++c) {
    clients.emplace_back([&, c]() {
      Rng rng(options.client_seed ^ (0x9e37ULL * (c + 1)));
      std::deque<std::future<std::vector<float>>> inflight;
      uint64_t ok = 0, rejected = 0;
      while (!stop_clients.load(std::memory_order_acquire)) {
        const size_t start = test_begin + rng.Uniform(test_span);
        auto submitted =
            server_raw->Submit(data.GetBatch(start, options.request_size));
        if (submitted.ok()) {
          inflight.push_back(std::move(submitted).value());
        } else {
          ++rejected;
        }
        while (inflight.size() >= options.client_inflight) {
          inflight.front().get();
          inflight.pop_front();
          ++ok;
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
        ++ok;
      }
      client_ok.fetch_add(ok, std::memory_order_relaxed);
      client_rejected.fetch_add(rejected, std::memory_order_relaxed);
    });
  }

  // Rollout thread: cut + hot-swap for as long as training runs. The
  // manager paces cuts to snapshot_interval trainer steps. Training is
  // marked active BEFORE the rollout thread exists: its first Cut() must
  // handshake with a step boundary, never direct-copy under a live trainer.
  manager.BeginTraining();
  std::atomic<bool> training_done{false};
  std::atomic<uint64_t> last_installed_step{0};
  uint64_t installs = 1;  // generation 1 is already serving
  Status rollout_status;
  std::thread rollout([&]() {
    while (!training_done.load(std::memory_order_acquire)) {
      auto snapshot = manager.Cut();
      if (!snapshot.ok()) {
        rollout_status = snapshot.status();
        return;
      }
      last_installed_step.store((*snapshot)->train_step,
                                std::memory_order_release);
      server_raw->InstallSnapshot(std::move(snapshot).value());
      ++installs;
    }
  });

  // Train on this thread; the only rollout cost it pays is the state copy
  // at the boundaries where a cut is pending.
  //
  // Same train.* registry surface as TrainOnePass: counters per step,
  // loss EMA + windowed steps/s in gauges the live scrape reads mid-run.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* const obs_steps = registry.GetCounter("train.steps_total");
  obs::Counter* const obs_examples =
      registry.GetCounter("train.examples_total");
  obs::Gauge* const obs_loss_ema = registry.GetGauge("train.loss_ema");
  obs::Gauge* const obs_steps_per_sec =
      registry.GetGauge("train.steps_per_sec");
  obs::Histogram* const obs_step_us =
      registry.GetHistogram("train.step_us", obs::DefaultTimeBucketsUs());
  constexpr double kLossEmaAlpha = 0.05;
  constexpr uint64_t kRateWindowSteps = 64;
  double loss_ema = 0.0;
  uint64_t rate_window_start_us = obs::NowMicros();

  WallTimer train_timer;
  double loss_sum = 0.0;
  size_t samples_seen = 0;
  uint64_t step = 0;
  const size_t train_end = data.train_size();
  for (size_t pass = 0; pass < options.passes; ++pass) {
    for (size_t start = 0; start < train_end; start += options.batch_size) {
      const size_t size = std::min(options.batch_size, train_end - start);
      const Batch batch = data.GetBatch(start, size);
      double step_loss;
      {
        obs::ScopedTimer step_timer("train.step", obs_step_us);
        step_loss = (*live_model)->TrainStep(batch);
      }
      loss_sum += step_loss * static_cast<double>(size);
      loss_ema = step == 0 ? step_loss
                           : (1.0 - kLossEmaAlpha) * loss_ema +
                                 kLossEmaAlpha * step_loss;
      obs_loss_ema->Set(loss_ema);
      obs_steps->Add(1);
      obs_examples->Add(size);
      samples_seen += size;
      ++step;
      published_step.store(step, std::memory_order_release);
      if (step % kRateWindowSteps == 0) {
        const uint64_t now_us = obs::NowMicros();
        if (now_us > rate_window_start_us) {
          obs_steps_per_sec->Set(
              static_cast<double>(kRateWindowSteps) * 1e6 /
              static_cast<double>(now_us - rate_window_start_us));
        }
        rate_window_start_us = now_us;
      }
      manager.AtStepBoundary(step);
    }
  }
  result.train_seconds = train_timer.ElapsedSeconds();
  // Order matters: the done flag must be visible BEFORE FinishTraining
  // wakes a cutter blocked inside Cut(), or the rollout loop keeps taking
  // idle cuts of the same final state until this thread gets scheduled
  // again (observed as dozens of duplicate generations under load).
  training_done.store(true, std::memory_order_release);
  manager.FinishTraining(step);
  rollout.join();
  if (!rollout_status.ok()) {
    stop_clients.store(true, std::memory_order_release);
    for (std::thread& client : clients) client.join();
    return rollout_status;
  }

  // Tail rollout: make sure the FULLY trained state is what keeps serving
  // (the in-flight cut may have landed a few steps short of the end).
  std::shared_ptr<const ServingSnapshot> final_snapshot;
  if (last_installed_step.load(std::memory_order_acquire) < step ||
      installs == 1) {
    auto snapshot = manager.Cut();  // trainer idle: direct quiesced copy
    if (!snapshot.ok()) {
      stop_clients.store(true, std::memory_order_release);
      for (std::thread& client : clients) client.join();
      return snapshot.status();
    }
    final_snapshot = std::move(snapshot).value();
    server_raw->InstallSnapshot(final_snapshot);
    ++installs;
  } else {
    final_snapshot = swap.Acquire();
  }

  // Drain the replication tier: every replica must reach the final
  // generation (it saw every frame the local rollout saw) before the run
  // reports success. Shutdown closes the streams; the source's reader
  // threads see EOF.
  if (replication != nullptr) {
    const uint64_t final_generation = final_snapshot->generation;
    Status replica_status;
    for (auto& replica : replicas) {
      replica_status =
          replica->WaitForGeneration(final_generation, options.replica_wait_us);
      if (!replica_status.ok()) break;
    }
    if (replica_status.ok()) replica_status = replication->stats().head_status;
    if (!replica_status.ok()) {
      stop_clients.store(true, std::memory_order_release);
      for (std::thread& client : clients) client.join();
      return replica_status;
    }
    result.replication_stats = replication->stats();
    result.replica_stats.reserve(replicas.size());
    for (auto& replica : replicas) {
      result.replica_stats.push_back(replica->stats());
    }
    for (auto& replica : replicas) replica->Shutdown();
    replication->Shutdown();
  }

  // Stop the sampler AFTER the tail install: its final line carries the
  // last generation and the final step.
  stop_timeline.store(true, std::memory_order_release);
  if (timeline.joinable()) timeline.join();
  if (!timeline_status.ok()) {
    stop_clients.store(true, std::memory_order_release);
    for (std::thread& client : clients) client.join();
    return timeline_status;
  }
  result.timeline_samples =
      timeline_samples.load(std::memory_order_relaxed);

  stop_clients.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  result.serve_seconds = serve_timer.ElapsedSeconds();
  result.latency = server_raw->latency_summary();
  result.server_stats = server_raw->stats();
  (*server)->Shutdown();

  if (!options.metrics_json_path.empty()) {
    std::ofstream metrics_out(options.metrics_json_path, std::ios::trunc);
    if (!metrics_out) {
      return Status::Internal("cannot open metrics json file: " +
                              options.metrics_json_path);
    }
    metrics_out << obs::DumpJsonSnapshot() << '\n';
  }

  result.avg_train_loss =
      samples_seen > 0 ? loss_sum / static_cast<double>(samples_seen) : 0.0;
  result.train_steps = step;
  result.snapshots_installed = installs;
  result.requests_ok = client_ok.load(std::memory_order_relaxed);
  result.requests_rejected = client_rejected.load(std::memory_order_relaxed);
  result.snapshot_stats = manager.stats();
  result.final_snapshot = std::move(final_snapshot);
  return result;
}

}  // namespace cafe
