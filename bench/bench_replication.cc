// Replication bench: what does it cost to keep a remote replica's serving
// state current? A "full" store (rows == features, so the dirty fraction
// maps 1:1 onto delta size) trains dense full-coverage intervals at 1% /
// 10% / 100% dirty fractions; every cut streams its O(dirty) delta over an
// in-process pipe transport to a ReplicaManager, which replays it into its
// own double-buffered resident stores and publishes a local generation.
//
// Reported per dirty fraction (median of N cuts):
//   delta bytes      — the frame payload (SaveDelta of the dirty rows);
//   replica lag      — wall time from the start of the source's Cut() to
//                      the replica SERVING that generation locally (frame
//                      transfer + delta replay + local publish);
//   source publish   — the source's own double-buffered publish, for scale.
//
// The claim under test: replica publish lag tracks the DELTA bytes, not
// the store size — the same O(dirty) contract the local publish path has,
// extended over a wire. The base row (generation 1, full SaveState) is the
// O(store) anchor the deltas are measured against.
//
// A second scenario times the REJOIN path: a durable replica is killed at
// generation K (--kill-at-generation; a default otherwise), the source
// keeps cutting, and the restarted replica — restored from its ledger —
// rejoins with hello(K). Killed briefly (outage inside the source's delta
// history ring) the rejoin is deltas-only (rejoin_delta_us); killed long
// (outage past the ring) it falls back to a full base (rejoin_base_us).
//
// Usage: bench_replication [--smoke] [--json <path>]
//                          [--kill-at-generation <g>]
//   --smoke               CI-sized volumes
//   --json                write BENCH_replication.json machine-readable
//   --kill-at-generation  move the rejoin scenario's first outage
//
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "replicate/replica_manager.h"
#include "replicate/replication_source.h"
#include "replicate/transport.h"
#include "serve/snapshot_manager.h"

using namespace cafe;

namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kBatch = 4096;
constexpr uint64_t kWaitUs = 60'000'000;

struct ScalingRow {
  double fraction = 0.0;
  uint64_t delta_bytes = 0;
  double replica_lag_us = 0.0;
  double source_publish_us = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  bench::PrintTitle(
      "Replication — replica publish lag vs streamed delta bytes");

  const uint64_t features = smoke ? 200'000 : 1'000'000;
  const int rounds = smoke ? 3 : 5;

  StoreFactoryContext context;
  context.embedding.total_features = features;
  context.embedding.dim = kDim;
  context.embedding.compression_ratio = 1.0;
  context.embedding.seed = 97;
  context.layout = FieldLayout({features});
  auto live = MakeStore("full", context);
  CAFE_CHECK(live.ok()) << live.status().ToString();
  auto factory = [&context]() { return MakeStore("full", context); };

  replicate::ReplicationSource source(factory);
  SnapshotManager::Options manager_options;
  manager_options.payload_observer = source.MakeObserver();
  SnapshotManager manager(live->get(), nullptr, factory, manager_options);

  replicate::TransportPair pair = replicate::MakePipeTransport();
  CAFE_CHECK(source.AddReplica(std::move(pair.source)).ok());
  replicate::ReplicaManager replica(factory, std::move(pair.replica));
  CAFE_CHECK(replica.Start().ok());

  Rng rng(1234);
  std::vector<uint64_t> ids(kBatch);
  std::vector<float> grads(kBatch * kDim);
  for (float& g : grads) g = rng.UniformFloat(-0.5f, 0.5f);
  // One interval = every id in [0, span) updated exactly once: the labeled
  // dirty fraction is the REAL dirty fraction.
  auto train_interval = [&](uint64_t span) {
    for (uint64_t start = 0; start < span; start += kBatch) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(kBatch, span - start));
      for (size_t i = 0; i < n; ++i) ids[i] = start + i;
      live->get()->ApplyGradientBatch(ids.data(), n, grads.data(), 0.05f);
      live->get()->Tick();
    }
  };

  // Generation 1: the full base — O(store) over the wire, once.
  train_interval(features);
  uint64_t generation = 0;
  uint64_t base_bytes = 0;
  double base_lag_us = 0.0;
  {
    WallTimer timer;
    auto base = manager.Cut();
    CAFE_CHECK(base.ok()) << base.status().ToString();
    generation = (*base)->generation;
    CAFE_CHECK(replica.WaitForGeneration(generation, kWaitUs).ok());
    base_lag_us = timer.ElapsedSeconds() * 1e6;
    base_bytes = manager.stats().last_copy_bytes;
  }
  // Bootstrap the source's second ping-pong buffer (one-time O(store)
  // publish) so measured cuts sit in the two-delta steady state.
  train_interval(features);
  {
    auto bootstrap = manager.Cut();
    CAFE_CHECK(bootstrap.ok()) << bootstrap.status().ToString();
    generation = (*bootstrap)->generation;
    CAFE_CHECK(replica.WaitForGeneration(generation, kWaitUs).ok());
  }

  std::printf(
      "store=full, %llu features x dim %u | one pipe replica | median of %d "
      "cuts\nbase: %llu bytes, cut -> replica serving in %.0f us\n\n",
      static_cast<unsigned long long>(features), kDim, rounds,
      static_cast<unsigned long long>(base_bytes), base_lag_us);
  std::printf("%8s %14s %16s %16s %12s\n", "dirty", "delta bytes",
              "replica lag us", "source pub us", "vs base");
  bench::PrintRule(72);

  std::vector<ScalingRow> scaling;
  const double fractions[] = {0.01, 0.10, 1.00};
  for (const double fraction : fractions) {
    const uint64_t span = std::max<uint64_t>(
        1, static_cast<uint64_t>(fraction * static_cast<double>(features)));
    // Transition cut (not measured): flush the previous fraction's delta
    // out of the lagging buffer queues on both ends.
    train_interval(span);
    {
      auto transition = manager.Cut();
      CAFE_CHECK(transition.ok()) << transition.status().ToString();
      generation = (*transition)->generation;
      CAFE_CHECK(replica.WaitForGeneration(generation, kWaitUs).ok());
    }
    ScalingRow row;
    row.fraction = fraction;
    std::vector<double> lag_us, publish_us;
    for (int round = 0; round < rounds; ++round) {
      train_interval(span);
      WallTimer timer;
      auto snapshot = manager.Cut();
      CAFE_CHECK(snapshot.ok()) << snapshot.status().ToString();
      generation = (*snapshot)->generation;
      CAFE_CHECK(replica.WaitForGeneration(generation, kWaitUs).ok());
      lag_us.push_back(timer.ElapsedSeconds() * 1e6);
      const SnapshotManager::Stats stats = manager.stats();
      row.delta_bytes = stats.last_copy_bytes;
      publish_us.push_back(stats.last_publish_us);
    }
    row.replica_lag_us = bench::Median(lag_us);
    row.source_publish_us = bench::Median(publish_us);
    scaling.push_back(row);
    std::printf("%7.0f%% %14llu %16.1f %16.1f %11.2fx\n", 100.0 * fraction,
                static_cast<unsigned long long>(row.delta_bytes),
                row.replica_lag_us, row.source_publish_us,
                base_lag_us > 0.0 ? row.replica_lag_us / base_lag_us : 0.0);
  }
  bench::PrintRule(72);

  const replicate::ReplicaManager::Stats replica_stats = replica.stats();
  const replicate::ReplicationSource::Stats source_stats = source.stats();
  CAFE_CHECK(replica_stats.fatal.ok()) << replica_stats.fatal.ToString();
  CAFE_CHECK(source_stats.head_status.ok())
      << source_stats.head_status.ToString();
  CAFE_CHECK(replica_stats.corrupt_frames == 0 &&
             replica_stats.gap_frames == 0 &&
             replica_stats.resyncs_requested == 0)
      << "clean pipe stream should never resync";
  std::printf(
      "\nstream: %llu frames / %llu bytes sent | replica applied %llu bases "
      "+ %llu deltas (%llu bytes), 0 resyncs, generation %llu\n",
      static_cast<unsigned long long>(source_stats.frames_sent),
      static_cast<unsigned long long>(source_stats.bytes_sent),
      static_cast<unsigned long long>(replica_stats.bases_applied),
      static_cast<unsigned long long>(replica_stats.deltas_applied),
      static_cast<unsigned long long>(replica_stats.bytes_applied),
      static_cast<unsigned long long>(replica_stats.generation));
  std::printf(
      "\nShape check: replica lag tracks the DELTA bytes (1%% dirty is far\n"
      "below the full-base anchor), not the store size — the O(dirty)\n"
      "publish contract holds across the wire, not just in-process.\n");

  // -------------------------------------------------------------------------
  // Rejoin scenario: durable replica killed mid-stream, restarted later.
  // A smaller rig with a 4-generation delta history ring; the replica keeps
  // a ledger, so each restart restores locally and rejoins with hello(K).
  // -------------------------------------------------------------------------
  const uint64_t kRejoinRing = 4;
  const uint64_t rejoin_features = smoke ? 100'000 : 400'000;
  const uint64_t rejoin_span = rejoin_features / 20;  // 5% dirty per cut
  const uint64_t kill_at =
      args.kill_at_generation > 0 ? args.kill_at_generation : 3;

  StoreFactoryContext rejoin_context;
  rejoin_context.embedding.total_features = rejoin_features;
  rejoin_context.embedding.dim = kDim;
  rejoin_context.embedding.compression_ratio = 1.0;
  rejoin_context.embedding.seed = 97;
  rejoin_context.layout = FieldLayout({rejoin_features});
  auto rejoin_live = MakeStore("full", rejoin_context);
  CAFE_CHECK(rejoin_live.ok()) << rejoin_live.status().ToString();
  auto rejoin_factory = [&rejoin_context]() {
    return MakeStore("full", rejoin_context);
  };

  replicate::ReplicationSource::Options rejoin_source_options;
  rejoin_source_options.delta_history_generations = kRejoinRing;
  replicate::ReplicationSource rejoin_source(rejoin_factory,
                                             rejoin_source_options);
  SnapshotManager::Options rejoin_manager_options;
  rejoin_manager_options.payload_observer = rejoin_source.MakeObserver();
  SnapshotManager rejoin_manager(rejoin_live->get(), nullptr, rejoin_factory,
                                 rejoin_manager_options);

  const std::string ledger_dir = "/tmp/cafe_bench_replication_ledger";
  CAFE_CHECK(io::EnsureDirectory(ledger_dir).ok());
  if (auto stale = io::ListDirectory(ledger_dir); stale.ok()) {
    for (const std::string& file : *stale) {
      (void)io::RemoveFile(ledger_dir + "/" + file);
    }
  }
  replicate::ReplicaManager::Options rejoin_replica_options;
  rejoin_replica_options.name = "bench_rejoin";
  rejoin_replica_options.durable_dir = ledger_dir;

  uint64_t rejoin_head = 0;
  std::vector<uint64_t> rejoin_ids(kBatch);
  auto rejoin_cut = [&](uint64_t span) {
    for (uint64_t start = 0; start < span; start += kBatch) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(kBatch, span - start));
      for (size_t i = 0; i < n; ++i) rejoin_ids[i] = start + i;
      rejoin_live->get()->ApplyGradientBatch(rejoin_ids.data(), n,
                                             grads.data(), 0.05f);
      rejoin_live->get()->Tick();
    }
    auto snapshot = rejoin_manager.Cut();
    CAFE_CHECK(snapshot.ok()) << snapshot.status().ToString();
    rejoin_head = (*snapshot)->generation;
  };

  std::unique_ptr<replicate::ReplicaManager> rejoin_replica;
  auto attach_replica = [&]() {
    replicate::TransportPair rejoin_pair = replicate::MakePipeTransport();
    CAFE_CHECK(rejoin_source.AddReplica(std::move(rejoin_pair.source)).ok());
    rejoin_replica = std::make_unique<replicate::ReplicaManager>(
        rejoin_factory, std::move(rejoin_pair.replica),
        rejoin_replica_options);
  };
  // Restart the killed replica on a fresh link and time ledger restore +
  // hello(K) + catch-up to the source's CURRENT head — the full outage
  // recovery as a replica operator experiences it.
  auto timed_rejoin = [&](uint64_t expect_bases,
                          uint64_t expect_restored) -> double {
    attach_replica();
    WallTimer timer;
    CAFE_CHECK(rejoin_replica->Start().ok());
    CAFE_CHECK(rejoin_replica->WaitForGeneration(rejoin_head, kWaitUs).ok());
    const double us = timer.ElapsedSeconds() * 1e6;
    const replicate::ReplicaManager::Stats stats = rejoin_replica->stats();
    CAFE_CHECK(stats.restores == 1 &&
               stats.restored_generation == expect_restored)
        << "rejoin did not restore the ledger (restored generation "
        << stats.restored_generation << ", want " << expect_restored << ")";
    CAFE_CHECK(stats.bases_applied == expect_bases)
        << "rejoin applied " << stats.bases_applied << " bases, want "
        << expect_bases;
    return us;
  };

  // Cold join, then run the stream to the kill point.
  attach_replica();
  CAFE_CHECK(rejoin_replica->Start().ok());
  for (uint64_t g = 0; g < kill_at; ++g) {
    rejoin_cut(g == 0 ? rejoin_features : rejoin_span);
  }
  CAFE_CHECK(rejoin_replica->WaitForGeneration(kill_at, kWaitUs).ok());

  // Outage 1: short — the ring still covers the restored generation, so
  // the rejoin is deltas-only (bases_applied stays 0).
  rejoin_replica->Shutdown();
  rejoin_replica.reset();
  for (int g = 0; g < 2; ++g) rejoin_cut(rejoin_span);
  const double rejoin_delta_us = timed_rejoin(0, kill_at);

  // Outage 2: long — the head moves past the ring, so the rejoin falls
  // back to one full base.
  const uint64_t second_kill = rejoin_head;
  rejoin_replica->Shutdown();
  rejoin_replica.reset();
  for (uint64_t g = 0; g < kRejoinRing + 2; ++g) rejoin_cut(rejoin_span);
  const double rejoin_base_us = timed_rejoin(1, second_kill);

  const replicate::ReplicationSource::Stats rejoin_source_stats =
      rejoin_source.stats();
  CAFE_CHECK(rejoin_source_stats.delta_catchups >= 1)
      << "short outage should have been served from the history ring";
  std::printf(
      "\nrejoin (durable ledger, ring=%llu deltas, killed at generation "
      "%llu):\n  short outage -> deltas only: %10.1f us\n  long outage  -> "
      "full base:   %10.1f us\n",
      static_cast<unsigned long long>(kRejoinRing),
      static_cast<unsigned long long>(kill_at), rejoin_delta_us,
      rejoin_base_us);
  rejoin_replica->Shutdown();
  rejoin_source.Shutdown();

  if (!args.json_path.empty()) {
    bench::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "replication");
    json.Field("smoke", smoke);
    json.Key("config");
    json.BeginObject();
    json.Field("store", "full");
    json.Field("features", features);
    json.Field("dim", static_cast<uint64_t>(kDim));
    json.Field("rounds", static_cast<uint64_t>(rounds));
    json.Field("transport", "pipe");
    json.EndObject();
    bench::WriteHostInfo(&json);
    json.Key("replication");
    json.BeginObject();
    json.Field("base_bytes", base_bytes);
    json.Field("base_lag_us", base_lag_us);
    json.Field("kill_at_generation", kill_at);
    json.Field("rejoin_delta_us", rejoin_delta_us);
    json.Field("rejoin_base_us", rejoin_base_us);
    json.Field("frames_sent", source_stats.frames_sent);
    json.Field("bytes_sent", source_stats.bytes_sent);
    json.Field("deltas_applied", replica_stats.deltas_applied);
    json.Field("resyncs", replica_stats.resyncs_requested);
    json.Key("rows");
    json.BeginArray();
    for (const ScalingRow& row : scaling) {
      json.BeginObject();
      json.Field("dirty_fraction", row.fraction);
      json.Field("delta_bytes", row.delta_bytes);
      json.Field("replica_lag_us", row.replica_lag_us);
      json.Field("source_publish_us", row.source_publish_us);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.EndObject();
    bench::WriteJsonFile(args.json_path, json);
  }

  replica.Shutdown();
  source.Shutdown();
  return 0;
}
