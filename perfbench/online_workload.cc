// online-cr1000: the train-cr1000 store and stream, trained serially on the
// main thread while a rollout thread cuts incremental snapshots every 25
// steps. Each generation streams over a pipe transport to one replica, and
// a 1-worker InferenceServer over the replica serves an open-loop 200
// req/s. Freshness is the time from the trainer step boundary that
// produced generation g until the replica serves g.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "common/logging.h"
#include "io/serialize.h"
#include "loadgen.h"
#include "replicate/replica_manager.h"
#include "replicate/replication_source.h"
#include "serve/inference_server.h"
#include "serve/snapshot_manager.h"

namespace perfbench {

namespace {

constexpr uint64_t kCutEverySteps = 25;
constexpr double kServeRate = 200.0;
constexpr size_t kMinGenerations = 100;
constexpr uint64_t kWaitUs = 30'000'000;
/// Replica generation poll period of the freshness watcher.
constexpr int64_t kPollNs = 50'000;

struct OnlineStack {
  // Declaration order is teardown order reversed: the server reads the
  // replica, the manager's observer feeds the source, and everything
  // reads the live store and model.
  std::unique_ptr<cafe::SyntheticCtrDataset> data;
  cafe::StoreFactoryContext context;
  std::unique_ptr<cafe::EmbeddingStore> store;
  std::unique_ptr<TracedStore> traced_store;
  std::unique_ptr<cafe::RecModel> model;
  cafe::RecModel* plain_model = nullptr;
  std::unique_ptr<cafe::replicate::ReplicationSource> source;
  TracedChannel* channel = nullptr;  // owned by the replica (traced runs)
  std::unique_ptr<cafe::replicate::ReplicaManager> replica;
  std::unique_ptr<cafe::SnapshotManager> manager;
  std::unique_ptr<TracedStore> traced_swappable;
  std::unique_ptr<cafe::InferenceServer> server;
  double base_s = 0.0;

  // Traced runs: replicate.publish_us and payload bytes per generation.
  std::mutex publish_mu;
  std::map<uint64_t, double> publish_us;
  std::map<uint64_t, double> payload_bytes;

  ~OnlineStack() {
    if (server != nullptr) server->Shutdown();
    if (replica != nullptr) replica->Shutdown();
    if (source != nullptr) source->Shutdown();
  }
};

double SetUp(const Args& args, Spans* trace, OnlineStack* s) {
  const int64_t t0 = NowNs();
  s->data = MakeData(args);
  const double generate_s = (NowNs() - t0) / 1e9;
  s->context = CafeContext(*s->data, 1000.0);
  s->store = MakeCafe(s->context);
  cafe::EmbeddingStore* live = s->store.get();
  if (trace != nullptr) {
    s->traced_store = std::make_unique<TracedStore>(s->store.get());
    live = s->traced_store.get();
  }
  std::unique_ptr<cafe::RecModel> dlrm = MakeDlrm(live);
  s->plain_model = dlrm.get();
  s->model = trace != nullptr
                 ? std::make_unique<TracedModel>(std::move(dlrm), trace)
                 : std::move(dlrm);

  const cafe::StoreFactoryContext* context = &s->context;
  auto plain_factory =
      [context]() -> cafe::StatusOr<std::unique_ptr<cafe::EmbeddingStore>> {
    return MakeCafe(*context);
  };
  auto replica_factory =
      [context,
       trace]() -> cafe::StatusOr<std::unique_ptr<cafe::EmbeddingStore>> {
    if (trace == nullptr) return MakeCafe(*context);
    return std::unique_ptr<cafe::EmbeddingStore>(
        std::make_unique<TracedStore>(MakeCafe(*context), trace));
  };

  s->source =
      std::make_unique<cafe::replicate::ReplicationSource>(plain_factory);
  cafe::replicate::TransportPair pair = cafe::replicate::MakePipeTransport();
  CAFE_CHECK(s->source->AddReplica(std::move(pair.source)).ok());
  std::unique_ptr<cafe::replicate::ByteChannel> channel =
      std::move(pair.replica);
  if (trace != nullptr) {
    auto traced = std::make_unique<TracedChannel>(std::move(channel));
    s->channel = traced.get();
    channel = std::move(traced);
  }
  s->replica = std::make_unique<cafe::replicate::ReplicaManager>(
      replica_factory, std::move(channel));
  CAFE_CHECK(s->replica->Start().ok());

  cafe::SnapshotManager::Options options;
  options.min_steps_between_cuts = kCutEverySteps;
  options.incremental = true;
  cafe::SnapshotManager::PayloadObserver observer =
      s->source->MakeObserver();
  if (trace != nullptr) {
    options.payload_observer =
        [s, observer](const cafe::SnapshotManager::BoundaryPayload& p) {
          const int64_t t0 = NowNs();
          observer(p);
          const double us = (NowNs() - t0) / 1e3;
          std::lock_guard<std::mutex> lock(s->publish_mu);
          s->publish_us[p.generation] = us;
          s->payload_bytes[p.generation] =
              static_cast<double>(p.payload->size());
        };
  } else {
    options.payload_observer = observer;
  }
  s->manager = std::make_unique<cafe::SnapshotManager>(
      live, s->model.get(), plain_factory, options);

  // Generation 1: the base, delivered to the replica before serving starts.
  const int64_t base_t0 = NowNs();
  CAFE_CHECK(s->manager->Cut().ok());
  const cafe::Status reached = s->replica->WaitForGeneration(1, kWaitUs);
  CAFE_CHECK(reached.ok()) << reached.ToString();
  s->base_s = (NowNs() - base_t0) / 1e9;

  cafe::SwappableStore* swappable = s->replica->swappable();
  cafe::EmbeddingStore* serve_store = swappable;
  if (trace != nullptr) {
    s->traced_swappable = std::make_unique<TracedStore>(swappable);
    serve_store = s->traced_swappable.get();
  }
  cafe::InferenceServerOptions server_options;
  server_options.num_workers = 1;
  server_options.max_batch = 256;
  server_options.max_wait_us = 200;
  server_options.max_queue_samples = 64 * kRequestSize;
  server_options.num_fields = s->data->num_fields();
  server_options.num_numerical = s->data->config().num_numerical;
  auto server = cafe::InferenceServer::Start(
      server_options,
      [serve_store,
       trace](size_t) -> cafe::StatusOr<std::unique_ptr<cafe::RecModel>> {
        std::unique_ptr<cafe::RecModel> model = MakeDlrm(serve_store);
        if (trace == nullptr) return model;
        return std::unique_ptr<cafe::RecModel>(
            std::make_unique<TracedModel>(std::move(model), trace));
      },
      swappable);
  CAFE_CHECK(server.ok()) << server.status().ToString();
  s->server = std::move(server).value();
  return generate_s;
}

std::string StateBytes(const cafe::EmbeddingStore& store) {
  cafe::io::Writer writer;
  CAFE_CHECK(store.SaveState(&writer).ok());
  return writer.Release();
}

}  // namespace

void RunOnlineWorkload(const Args& args, Result* result) {
  Spans spans;
  Spans* trace = args.trace ? &spans : nullptr;

  std::unique_ptr<OnlineStack> stack;
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    const int64_t t0 = NowNs();
    stack = std::make_unique<OnlineStack>();
    generate_s.push_back(SetUp(args, trace, stack.get()));
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  result->E2e("setup_s", Median(setup_s), "s");
  result->Layer("data.generate_s", Median(generate_s), "s");
  result->Layer("replicate.base_s", stack->base_s, "s");
  OnlineStack& s = *stack;
  const cafe::SyntheticCtrDataset& data = *s.data;

  // Freshness watcher: stamps the first time each replica generation is
  // seen serving.
  const size_t max_generations =
      data.train_size() / kBatchSize / kCutEverySteps + 16;
  std::vector<int64_t> seen_ns(max_generations + 1, 0);
  std::atomic<bool> stop_watch{false};
  // Polls the replica's serving hub, whose generation is one atomic load.
  cafe::SwappableStore* const hub = s.replica->swappable();
  std::thread watcher([&] {
    uint64_t last = hub->generation();
    while (!stop_watch.load(std::memory_order_acquire)) {
      const uint64_t g = hub->generation();
      if (g > last) {
        const int64_t now = NowNs();
        for (uint64_t k = last + 1; k <= g && k <= max_generations; ++k) {
          seen_ns[k] = now;
        }
        last = g;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
    }
  });

  // Open-loop serving on the replica for the whole training run.
  std::atomic<bool> stop_load{false};
  RungResult load_result;
  OpenLoop load(s.server.get(), &data, data.train_size(), data.num_samples(),
                kRequestSize, args.seed ^ 0x0411e11eULL);
  std::thread loader([&] {
    load_result = load.Run(kServeRate, 1e6, 0.5, 1.0, Slo{}, &stop_load);
  });

  // Rollout thread: cut until training ends. A cut that returns after the
  // trainer finished was a direct copy, not a boundary cut, and is not
  // timed for freshness.
  struct Cut {
    uint64_t generation;
    uint64_t step;
    bool during_training;
    double publish_us;
  };
  std::vector<Cut> cuts;
  std::atomic<bool> training_done{false};
  s.manager->BeginTraining();
  std::thread rollout([&] {
    while (!training_done.load(std::memory_order_acquire)) {
      auto snapshot = s.manager->Cut();
      CAFE_CHECK(snapshot.ok()) << snapshot.status().ToString();
      const bool during = !training_done.load(std::memory_order_acquire);
      cuts.push_back({(*snapshot)->generation, (*snapshot)->train_step, during,
                      s.manager->stats().last_publish_us});
    }
  });

  const PassResult pass = TrainPass(s.model.get(), data, s.manager.get());
  training_done.store(true, std::memory_order_release);
  s.manager->FinishTraining(pass.steps);
  rollout.join();
  uint64_t final_generation = cuts.empty() ? 1 : cuts.back().generation;
  if (cuts.empty() || cuts.back().step < pass.steps) {
    auto tail = s.manager->Cut();  // trainer idle: direct copy
    CAFE_CHECK(tail.ok()) << tail.status().ToString();
    final_generation = (*tail)->generation;
  }
  const cafe::Status reached =
      s.replica->WaitForGeneration(final_generation, kWaitUs);
  stop_load.store(true, std::memory_order_release);
  loader.join();
  stop_watch.store(true, std::memory_order_release);
  watcher.join();
  result->Check("online.replica_reached_final", reached.ok(),
                "the replica serves the final generation");

  // Output check: the replica's final state equals the source's.
  const std::string source_state = StateBytes(*s.store);
  const std::string replica_state =
      StateBytes(*s.replica->swappable()->Acquire()->store->underlying());
  result->Check("online.replica_state_equals_source",
                source_state == replica_state,
                "final replica SaveState bytes equal the source's");

  // Freshness per boundary cut.
  std::vector<double> fresh_ms;
  std::map<uint64_t, double> fresh_by_gen;
  for (const Cut& cut : cuts) {
    if (!cut.during_training || cut.generation > max_generations ||
        seen_ns[cut.generation] == 0 || cut.step >= pass.boundary_ns.size()) {
      continue;
    }
    const double ms =
        (seen_ns[cut.generation] - pass.boundary_ns[cut.step]) / 1e6;
    fresh_ms.push_back(ms);
    fresh_by_gen[cut.generation] = ms;
  }
  const bool enough = args.seconds < 20 || fresh_ms.size() >= kMinGenerations;
  result->Check("online.generations", enough,
                "at least 100 boundary generations reached the replica");

  const Quality quality = Evaluate(s.plain_model, data);
  ReportTraining(pass, quality, result);
  result->E2e("lat_p50_us", 1e3 * Quantile(fresh_ms, 0.50), "us");
  result->Named("online.freshness_p50_ms", Quantile(fresh_ms, 0.50), "ms");
  result->Named("online.freshness_p90_ms", Quantile(fresh_ms, 0.90), "ms");
  result->Named("online.generations", static_cast<double>(fresh_ms.size()),
                "count");
  result->Named("serve.p50_us", load_result.p50_us, "us");
  result->Named("serve.p99_us", load_result.p99_us, "us");
  const double failed_frac =
      load_result.timed > 0 ? static_cast<double>(load_result.timed_missed) /
                                  static_cast<double>(load_result.timed)
                            : 1.0;
  result->Named("serve.failed_frac", failed_frac, "frac");
  result->attempted += load_result.sent;
  result->failed += load_result.rejected + load_result.failed;

  const cafe::replicate::ReplicaManager::Stats replica_stats =
      s.replica->stats();
  const cafe::replicate::ReplicationSource::Stats source_stats =
      s.source->stats();
  result->Check("online.replica_healthy", replica_stats.fatal.ok(),
                "the replica apply loop never stopped on an error");
  if (!args.trace) return;

  // Per-layer metrics.
  for (const char* name : {"embed.gather_us", "embed.scatter_us",
                           "embed.tick_us", "nn.train_self_us",
                           "serve.predict_us", "embed.gather_const_us",
                           "nn.predict_self_us", "replicate.apply_us"}) {
    result->Layer(std::string(name) + "_p50", spans.P(name, 0.50), "us");
    result->Layer(std::string(name) + "_p99", spans.P(name, 0.99), "us");
  }
  result->Layer("train.step_us_p50", Quantile(pass.step_us, 0.50), "us");
  result->Layer("train.step_us_p99", Quantile(pass.step_us, 0.99), "us");
  double step_sum_us = 0.0;
  for (double us : pass.step_us) step_sum_us += us;
  result->Layer("train.step_sum_over_wall", step_sum_us / (pass.wall_s * 1e6),
                "ratio");
  result->Layer("serve.batch_samples_mean", spans.Mean("serve.batch_samples"),
                "count");
  const double predict_p50 = spans.P("serve.predict_us", 0.50);
  const double predict_p99 = spans.P("serve.predict_us", 0.99);
  result->Layer("serve.queue_wait_us_p50", load_result.p50_us - predict_p50,
                "us");
  result->Layer("serve.queue_wait_us_p99", load_result.p99_us - predict_p99,
                "us");
  result->Layer("serve.rejected", static_cast<double>(load_result.rejected),
                "count");
  result->Layer("loadgen.late_us_p99", load_result.late_p99_us, "us");
  result->Layer("loadgen.late_us_max", load_result.late_max_us, "us");
  result->Layer("loadgen.backlog_end",
                static_cast<double>(load_result.backlog_end), "count");
  ReportStoreLayers(s.traced_store.get(), s.store.get(), result);

  std::vector<double> pause_us;
  std::map<uint64_t, double> pause_by_step;
  for (const auto& [step, us] : pass.pauses_us) {
    pause_us.push_back(us);
    pause_by_step[step] = us;
  }
  result->Layer("snapshot.pause_us_p50", Quantile(pause_us, 0.50), "us");
  result->Layer("snapshot.pause_us_p99", Quantile(pause_us, 0.99), "us");
  std::vector<double> cut_us;
  for (const Cut& cut : cuts) cut_us.push_back(cut.publish_us);
  result->Layer("snapshot.cut_us_p50", Quantile(cut_us, 0.50), "us");
  result->Layer("snapshot.cut_us_p99", Quantile(cut_us, 0.99), "us");

  // Replication: publish per generation, the replica applies attributed to
  // the generation they were published under, and the residual.
  std::vector<double> publish, bytes;
  {
    std::lock_guard<std::mutex> lock(s.publish_mu);
    for (const auto& [g, us] : s.publish_us) publish.push_back(us);
    for (const auto& [g, b] : s.payload_bytes) bytes.push_back(b);
  }
  result->Layer("snapshot.payload_bytes_p50", Quantile(bytes, 0.50), "bytes");
  result->Layer("replicate.publish_us_p50", Quantile(publish, 0.50), "us");
  result->Layer("replicate.publish_us_p99", Quantile(publish, 0.99), "us");
  const std::vector<double> apply_end = spans.Get("replicate.apply_end_ns");
  const std::vector<double> apply_us = spans.Get("replicate.apply_us");
  std::vector<double> wire_us;
  for (const Cut& cut : cuts) {
    auto fresh = fresh_by_gen.find(cut.generation);
    if (fresh == fresh_by_gen.end()) continue;
    const double lo = static_cast<double>(seen_ns[cut.generation - 1]);
    const double hi = static_cast<double>(seen_ns[cut.generation]);
    double applied = 0.0;
    for (size_t i = 0; i < apply_end.size(); ++i) {
      if (apply_end[i] > lo && apply_end[i] <= hi) applied += apply_us[i];
    }
    double published = 0.0;
    {
      std::lock_guard<std::mutex> lock(s.publish_mu);
      auto it = s.publish_us.find(cut.generation);
      if (it != s.publish_us.end()) published = it->second;
    }
    auto pause = pause_by_step.find(cut.step);
    const double paused = pause == pause_by_step.end() ? 0.0 : pause->second;
    wire_us.push_back(1e3 * fresh->second - paused - published - applied);
  }
  result->Layer("replicate.wire_us_p50", Quantile(wire_us, 0.50), "us");
  result->Layer("replicate.wire_us_p99", Quantile(wire_us, 0.99), "us");
  result->Layer("replicate.read_calls",
                static_cast<double>(s.channel->read_calls()), "count");
  result->Layer("replicate.read_bytes",
                static_cast<double>(s.channel->read_bytes()), "bytes");
  result->Layer("replicate.resyncs",
                static_cast<double>(replica_stats.resyncs_requested +
                                    source_stats.queue_overflows),
                "count");

  // Reference: an undecorated serial pass with no cuts must reproduce the
  // traced online arithmetic bit for bit (cuts and decorators do not
  // perturb training).
  auto ref_store = MakeCafe(s.context);
  auto ref_model = MakeDlrm(ref_store.get());
  const PassResult ref_pass = TrainPass(ref_model.get(), data);
  const Quality ref_quality = Evaluate(ref_model.get(), data);
  result->Check("trace.equals_untraced",
                ref_pass.loss_sum == pass.loss_sum &&
                    ref_quality.auc == quality.auc &&
                    ref_quality.logloss == quality.logloss,
                "traced online loss, AUC and log-loss equal an untraced "
                "serial pass with no cuts, bit for bit");
}

}  // namespace perfbench
