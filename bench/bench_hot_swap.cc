// Hot-swap rollout bench: what does a live model rollout cost the serving
// path? Three phases over the same cafe + dlrm workload:
//
//   steady    — frozen serving, no swaps (the PR-2 baseline shape);
//   rollout   — training continues on a trainer thread while a rollout
//               thread cuts + hot-swaps snapshots mid-traffic: reports the
//               swap cadence, the trainer's copy pause, the off-trainer
//               rebuild time, and the serving QPS/latency DURING rollout
//               (the QPS dip is the rollout tax);
//   overload  — admission-controlled server under a flooding client:
//               reports admitted/rejected counts and the bounded queue
//               depth (fast-fail engages instead of unbounded latency).
//
// The rollout phase cuts snapshots incrementally, as SnapshotManager always
// does: the first cut copies the full base and turns dirty-row
// tracking on; every later trainer pause serializes only the rows dirtied
// since the previous cut, and every later PUBLISH replays those deltas
// straight into the manager's ping-pong buffer stores (no full serialize,
// no fresh store per generation).
//
// A fourth section measures the publish path in isolation: per-generation
// publish cost at 1% / 10% / 100% dirty fractions on a "full" store,
// against a full rebuild (factory-fresh store + LoadState of the whole
// SaveState payload + freeze) — the O(dirty) publish claim,
// machine-readable in BENCH_hot_swap.json as "publish_scaling".
//
// Usage: bench_hot_swap [--smoke] [--json <path>]
//   --smoke  CI-sized volumes
//   --json   write BENCH_hot_swap.json-style machine-readable results

#include <atomic>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "io/serialize.h"
#include "serve/frozen_store.h"
#include "serve/inference_server.h"
#include "serve/snapshot_manager.h"
#include "serve/swappable_store.h"
#include "train/model_factory.h"

using namespace cafe;

namespace {

struct PhaseResult {
  LatencySummary latency;
  double qps = 0.0;
  uint64_t served = 0;
  uint64_t rejected = 0;
};

/// Drives `total_requests` fixed-size requests from `num_clients` threads
/// against `server`; rejected submissions are counted, not retried.
PhaseResult DriveTraffic(InferenceServer* server,
                         const SyntheticCtrDataset& data,
                         size_t total_requests, size_t request_size,
                         size_t num_clients) {
  const size_t test_begin = data.train_size();
  const size_t test_span =
      data.num_samples() - test_begin - request_size;
  std::atomic<size_t> next_request{0};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> rejected{0};
  server->ClearLatency();  // per-phase percentiles
  WallTimer timer;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&]() {
      std::deque<std::future<std::vector<float>>> inflight;
      uint64_t ok = 0, shed = 0;
      for (;;) {
        const size_t r = next_request.fetch_add(1);
        if (r >= total_requests) break;
        const size_t start = test_begin + (r * request_size) % test_span;
        auto submitted = server->Submit(data.GetBatch(start, request_size));
        if (submitted.ok()) {
          inflight.push_back(std::move(submitted).value());
        } else {
          ++shed;
        }
        if (inflight.size() >= 8) {
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
      served.fetch_add(ok);
      rejected.fetch_add(shed);
    });
  }
  for (auto& client : clients) client.join();
  const double seconds = timer.ElapsedSeconds();

  PhaseResult result;
  result.latency = server->latency_summary();
  result.served = served.load();
  result.rejected = rejected.load();
  result.qps = seconds > 0.0 ? static_cast<double>(result.served) / seconds
                             : 0.0;
  return result;
}

void PrintPhase(const char* phase, const PhaseResult& r) {
  std::printf("%-9s %10.0f %10.0f %10.0f %12.0f %9llu %9llu\n", phase,
              r.latency.p50_us, r.latency.p95_us, r.latency.p99_us, r.qps,
              static_cast<unsigned long long>(r.served),
              static_cast<unsigned long long>(r.rejected));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  bench::PrintTitle(
      "Hot-swap rollout — swap latency, serving QPS during rollout, "
      "backpressure");
  bench::Workload w = bench::MakeWorkload(CriteoLikePreset());

  const size_t total_requests = smoke ? 300 : 4000;
  const size_t request_size = 16;
  const size_t warmup_batches = smoke ? 30 : 150;
  const size_t num_workers = args.threads;
  constexpr size_t kClients = 3;
  constexpr size_t kTrainBatch = 128;

  StoreFactoryContext context = bench::MakeContext(w, 20.0);
  auto live_store = MakeStore("cafe", context);
  CAFE_CHECK(live_store.ok()) << live_store.status().ToString();
  auto live_model = MakeModel("dlrm", w.model_config, live_store->get());
  CAFE_CHECK(live_model.ok());
  // Warm the store (hot-set formation) before the first snapshot.
  for (size_t k = 0; k < warmup_batches; ++k) {
    (*live_model)->TrainStep(
        w.dataset->GetBatch(k * kTrainBatch, kTrainBatch));
  }

  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = smoke ? 10 : 25;
  SnapshotManager manager(
      live_store->get(), live_model->get(),
      [&context]() { return MakeStore("cafe", context); }, manager_options);
  auto initial = manager.Cut();
  CAFE_CHECK(initial.ok()) << initial.status().ToString();
  SwappableStore swap(std::move(initial).value());

  InferenceServerOptions options;
  options.num_workers = num_workers;
  options.max_batch = 256;
  options.max_wait_us = 200;
  options.num_fields = w.dataset->num_fields();
  options.num_numerical = w.preset.data.num_numerical;
  auto server = InferenceServer::Start(
      options,
      [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        return MakeModel("dlrm", w.model_config, &swap);
      },
      &swap);
  CAFE_CHECK(server.ok()) << server.status().ToString();

  std::printf(
      "cafe + dlrm @ CR 20 | %zu workers | %zu x %zu-sample requests per "
      "phase\n\n",
      num_workers, total_requests, request_size);
  std::printf("%-9s %10s %10s %10s %12s %9s %9s\n", "phase", "p50 us",
              "p95 us", "p99 us", "QPS", "served", "rejected");

  // Phase 1: steady-state serving on the initial generation.
  const PhaseResult steady = DriveTraffic(server->get(), *w.dataset,
                                          total_requests, request_size,
                                          kClients);
  PrintPhase("steady", steady);

  // Phase 2: identical traffic while training + rollout run concurrently.
  std::atomic<bool> stop_training{false};
  manager.BeginTraining();  // before the rollout thread: no direct cuts
  std::thread trainer([&]() {
    uint64_t step = 0;
    size_t cursor = warmup_batches;
    const size_t train_batches = w.dataset->train_size() / kTrainBatch;
    while (!stop_training.load(std::memory_order_acquire)) {
      (*live_model)->TrainStep(w.dataset->GetBatch(
          (cursor++ % train_batches) * kTrainBatch, kTrainBatch));
      manager.AtStepBoundary(++step);
    }
    manager.FinishTraining(step);
  });
  std::atomic<bool> stop_rollout{false};
  std::atomic<uint64_t> swaps{0};
  std::thread rollout([&]() {
    while (!stop_rollout.load(std::memory_order_acquire)) {
      auto snapshot = manager.Cut();
      CAFE_CHECK(snapshot.ok()) << snapshot.status().ToString();
      (*server)->InstallSnapshot(std::move(snapshot).value());
      swaps.fetch_add(1);
    }
  });
  const PhaseResult during = DriveTraffic(server->get(), *w.dataset,
                                          total_requests, request_size,
                                          kClients);
  stop_rollout.store(true, std::memory_order_release);
  stop_training.store(true, std::memory_order_release);
  rollout.join();
  trainer.join();
  PrintPhase("rollout", during);

  const SnapshotManager::Stats cut_stats = manager.stats();
  const InferenceServer::Stats serve_stats = (*server)->stats();
  std::printf(
      "\nswaps during rollout phase: %llu (generation now %llu)\n"
      "swap latency: trainer copy pause last %.0f us (max %.0f us), "
      "off-trainer publish last %.0f us (max %.0f us; delta replay last "
      "%.0f us / %llu bytes into the double buffer)\n"
      "incremental cuts: %llu of %llu were deltas; last boundary copy "
      "%llu bytes; retired buffers %llu\n"
      "QPS dip vs steady: %.1f%%\n",
      static_cast<unsigned long long>(swaps.load()),
      static_cast<unsigned long long>(serve_stats.snapshot_generation),
      cut_stats.last_copy_us, cut_stats.max_copy_us,
      cut_stats.last_publish_us, cut_stats.max_publish_us,
      cut_stats.last_apply_us,
      static_cast<unsigned long long>(cut_stats.last_apply_bytes),
      static_cast<unsigned long long>(cut_stats.delta_cuts),
      static_cast<unsigned long long>(cut_stats.cuts),
      static_cast<unsigned long long>(cut_stats.last_copy_bytes),
      static_cast<unsigned long long>(cut_stats.retired_buffers),
      steady.qps > 0.0 ? 100.0 * (1.0 - during.qps / steady.qps) : 0.0);
  (*server)->Shutdown();

  // Phase 3: overload against a deliberately under-provisioned,
  // admission-controlled server (1 worker, tiny queue cap).
  auto tail = manager.Cut();
  CAFE_CHECK(tail.ok());
  SwappableStore overload_swap(std::move(tail).value());
  InferenceServerOptions overload_options = options;
  overload_options.num_workers = 1;
  overload_options.max_batch = 64;
  overload_options.max_wait_us = 1000;
  overload_options.max_queue_samples = 8 * request_size;
  auto overload_server = InferenceServer::Start(
      overload_options,
      [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        return MakeModel("dlrm", w.model_config, &overload_swap);
      },
      &overload_swap);
  CAFE_CHECK(overload_server.ok());
  const PhaseResult overload =
      DriveTraffic(overload_server->get(), *w.dataset, total_requests,
                   request_size, kClients);
  PrintPhase("overload", overload);
  const InferenceServer::Stats overload_stats = (*overload_server)->stats();
  std::printf(
      "\noverload: queue capped at %zu samples, peak depth %zu, "
      "%llu rejected (%.1f%% shed) — depth stays bounded and p99 stays "
      "finite because fast-fail engages instead of queue growth.\n",
      overload_options.max_queue_samples, overload_stats.peak_queue_depth,
      static_cast<unsigned long long>(overload_stats.rejected),
      100.0 * static_cast<double>(overload.rejected) /
          static_cast<double>(total_requests));
  CAFE_CHECK(overload_stats.peak_queue_depth <=
             overload_options.max_queue_samples)
      << "admission control failed to bound the queue";
  (*overload_server)->Shutdown();

  // Phase 4: publish scaling — the O(dirty) publish claim, measured on an
  // isolated "full" store (rows == features, so the dirty fraction maps 1:1
  // onto delta size). Per fraction: one interval touches EVERY id in the
  // first fraction-of-the-id-space once (a dense sweep, so the labeled
  // fraction is exactly the dirty fraction — a fixed-size sampled stream
  // would cap dirty rows at its draw count and mislabel the axis), then
  // cut once through the (double-buffered) manager and time one full
  // rebuild of the same state. Snapshots are dropped immediately (the
  // healthy retention pattern), so publishes stay on the reclaim fast
  // path. At 100% dirty the delta IS the store and publish
  // parity with the full rebuild is expected; the win is the sub-linear
  // region serving rollouts actually live in.
  struct ScalingRow {
    double fraction = 0.0;
    uint64_t delta_copy_bytes = 0;
    uint64_t apply_bytes = 0;
    double apply_us = 0.0;
    double publish_us = 0.0;
    double full_publish_us = 0.0;
  };
  std::vector<ScalingRow> scaling;
  const uint64_t scale_features = smoke ? 200'000 : 2'600'000;
  {
    constexpr uint32_t kScaleDim = 16;
    constexpr size_t kScaleBatch = 4096;
    const int rounds = smoke ? 2 : 3;
    StoreFactoryContext scale_context;
    scale_context.embedding.total_features = scale_features;
    scale_context.embedding.dim = kScaleDim;
    scale_context.embedding.compression_ratio = 1.0;
    scale_context.embedding.seed = 97;
    scale_context.layout = FieldLayout({scale_features});
    auto scale_live = MakeStore("full", scale_context);
    CAFE_CHECK(scale_live.ok()) << scale_live.status().ToString();
    auto scale_factory = [&scale_context]() {
      return MakeStore("full", scale_context);
    };

    SnapshotManager scale_manager(scale_live->get(), nullptr, scale_factory);
    // The baseline a publish would cost without the double buffer: a
    // factory-fresh store takes the full SaveState payload and freezes.
    auto time_full_rebuild = [&]() {
      io::Writer writer;
      CAFE_CHECK(scale_live->get()->SaveState(&writer).ok());
      const std::string payload = writer.Release();
      WallTimer timer;
      auto fresh = scale_factory();
      CAFE_CHECK(fresh.ok()) << fresh.status().ToString();
      io::Reader reader(&payload);
      CAFE_CHECK((*fresh)->LoadState(&reader).ok());
      CAFE_CHECK(reader.remaining() == 0);
      auto frozen = FrozenStore::Adopt(std::move(fresh).value());
      return timer.ElapsedMicros();
    };

    Rng scale_rng(1234);
    std::vector<uint64_t> ids(kScaleBatch);
    std::vector<float> grads(kScaleBatch * kScaleDim);
    for (float& g : grads) g = scale_rng.UniformFloat(-0.5f, 0.5f);
    // One interval = every id in [0, span) updated exactly once: the
    // labeled dirty fraction is the REAL dirty fraction.
    auto train_interval = [&](uint64_t span) {
      for (uint64_t start = 0; start < span; start += kScaleBatch) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(kScaleBatch, span - start));
        for (size_t i = 0; i < n; ++i) ids[i] = start + i;
        scale_live->get()->ApplyGradientBatch(ids.data(), n, grads.data(),
                                              0.05f);
        scale_live->get()->Tick();
      }
    };
    // Warm + base cut (turns tracking on; published O(store) once).
    train_interval(scale_features);
    {
      auto base = scale_manager.Cut();
      CAFE_CHECK(base.ok()) << base.status().ToString();
    }
    // Bootstrap the second buffer: generation 2's publish folds the full
    // base into the other ping-pong buffer — a one-time O(store) cost.
    // Measure from generation 3 on, where steady state is two delta
    // replays per publish.
    train_interval(scale_features);
    {
      auto bootstrap = scale_manager.Cut();
      CAFE_CHECK(bootstrap.ok()) << bootstrap.status().ToString();
    }

    std::printf(
        "\npublish scaling (store=full, %llu features, dense full-coverage "
        "intervals, median of %d cuts)\n",
        static_cast<unsigned long long>(scale_features), rounds);
    std::printf("%8s %14s %14s %12s %12s %14s %9s\n", "dirty", "delta bytes",
                "apply bytes", "apply us", "publish us", "full rebuild",
                "publish x");
    bench::PrintRule(90);
    const double fractions[] = {0.01, 0.10, 1.00};
    for (const double fraction : fractions) {
      const uint64_t span = std::max<uint64_t>(
          1, static_cast<uint64_t>(fraction *
                                   static_cast<double>(scale_features)));
      // Transition cut (not measured): the off-buffer's lagging queue still
      // holds the PREVIOUS fraction's delta; flush it so every measured
      // publish replays two same-fraction deltas (the steady state).
      train_interval(span);
      {
        auto transition = scale_manager.Cut();
        CAFE_CHECK(transition.ok()) << transition.status().ToString();
      }
      std::vector<double> apply_us, publish_us, full_us;
      ScalingRow row;
      row.fraction = fraction;
      for (int round = 0; round < rounds; ++round) {
        train_interval(span);
        {
          auto snapshot = scale_manager.Cut();
          CAFE_CHECK(snapshot.ok()) << snapshot.status().ToString();
        }
        const SnapshotManager::Stats scale_stats = scale_manager.stats();
        CAFE_CHECK(scale_stats.retired_buffers == 0)
            << "scaling cuts should stay on the reclaim fast path";
        apply_us.push_back(scale_stats.last_apply_us);
        publish_us.push_back(scale_stats.last_publish_us);
        row.delta_copy_bytes = scale_stats.last_copy_bytes;
        row.apply_bytes = scale_stats.last_apply_bytes;
        full_us.push_back(time_full_rebuild());
      }
      row.apply_us = bench::Median(apply_us);
      row.publish_us = bench::Median(publish_us);
      row.full_publish_us = bench::Median(full_us);
      scaling.push_back(row);
      std::printf("%7.0f%% %14llu %14llu %12.1f %12.1f %14.1f %8.1fx\n",
                  100.0 * fraction,
                  static_cast<unsigned long long>(row.delta_copy_bytes),
                  static_cast<unsigned long long>(row.apply_bytes),
                  row.apply_us, row.publish_us, row.full_publish_us,
                  row.publish_us > 0.0 ? row.full_publish_us / row.publish_us
                                       : 0.0);
    }
    bench::PrintRule(90);
  }

  std::printf(
      "\nShape check: rollout-phase p50/p99 sit near steady-state (workers "
      "never drain;\nswaps are one pointer flip + a dense-weight refresh per "
      "worker); the trainer's\nonly rollout cost is the state copy at a "
      "step boundary, and the publish cost\ntracks the dirty fraction "
      "instead of the store size.\n");

  if (!args.json_path.empty()) {
    bench::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "hot_swap");
    json.Field("smoke", smoke);
    json.Key("config");
    json.BeginObject();
    json.Field("store", "cafe");
    json.Field("cr", 20.0);
    json.Field("total_requests", static_cast<uint64_t>(total_requests));
    json.Field("request_size", static_cast<uint64_t>(request_size));
    json.Field("num_workers", static_cast<uint64_t>(num_workers));
    json.Field("clients", static_cast<uint64_t>(kClients));
    json.EndObject();
    bench::WriteHostInfo(&json);
    auto phase = [&json](const char* name, const PhaseResult& r) {
      json.Key(name);
      json.BeginObject();
      json.Field("p50_us", r.latency.p50_us);
      json.Field("p95_us", r.latency.p95_us);
      json.Field("p99_us", r.latency.p99_us);
      json.Field("qps", r.qps);
      json.Field("served", r.served);
      json.Field("rejected", r.rejected);
      json.EndObject();
    };
    phase("steady", steady);
    phase("rollout", during);
    phase("overload", overload);
    json.Key("swap");
    json.BeginObject();
    json.Field("swaps", swaps.load());
    json.Field("cuts", cut_stats.cuts);
    json.Field("delta_cuts", cut_stats.delta_cuts);
    json.Field("retired_buffers", cut_stats.retired_buffers);
    json.Field("last_copy_us", cut_stats.last_copy_us);
    json.Field("max_copy_us", cut_stats.max_copy_us);
    json.Field("last_copy_bytes", cut_stats.last_copy_bytes);
    json.Field("last_apply_us", cut_stats.last_apply_us);
    json.Field("last_apply_bytes", cut_stats.last_apply_bytes);
    json.Field("last_publish_us", cut_stats.last_publish_us);
    json.Field("max_publish_us", cut_stats.max_publish_us);
    json.Field("qps_dip_fraction",
               steady.qps > 0.0 ? 1.0 - during.qps / steady.qps : 0.0);
    json.EndObject();
    json.Key("publish_scaling");
    json.BeginObject();
    json.Field("store", "full");
    json.Field("features", scale_features);
    json.Key("rows");
    json.BeginArray();
    for (const ScalingRow& row : scaling) {
      json.BeginObject();
      json.Field("dirty_fraction", row.fraction);
      json.Field("delta_copy_bytes", row.delta_copy_bytes);
      json.Field("apply_bytes", row.apply_bytes);
      json.Field("apply_us", row.apply_us);
      json.Field("publish_us", row.publish_us);
      json.Field("full_publish_us", row.full_publish_us);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.Key("overload_stats");
    json.BeginObject();
    json.Field("queue_cap_samples",
               static_cast<uint64_t>(overload_options.max_queue_samples));
    json.Field("peak_queue_depth",
               static_cast<uint64_t>(overload_stats.peak_queue_depth));
    json.Field("rejected", overload_stats.rejected);
    json.EndObject();
    json.EndObject();
    bench::WriteJsonFile(args.json_path, json);
  }
  return 0;
}
