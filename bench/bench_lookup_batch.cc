// Microbenchmark: scalar (per-id virtual) vs batched embedding execution.
//
// Two workloads, both batch 4096, dim 16:
//  - "global": one Zipf(z = 1.05) id stream over a 20M-feature space — the
//    whole-table view of a CTR workload (paper Fig. 3 measures z ~ 1.05 on
//    Criteo), tables sized to straddle the LLC;
//  - "layer": the stream the refactored consumer stack actually produces —
//    26 per-field batches per step with Criteo-like field cardinalities
//    (a few huge fields, many tiny ones), Zipf within each field. Per-field
//    batches repeat ids heavily (~20% unique overall), which is what the
//    stores' in-batch deduplication compresses.
//
// The per-id baseline is the seed's execution model: one virtual
// Lookup/ApplyGradient per (sample, field). Scalar and batched rounds are
// interleaved and the median of 9 rounds is reported, because virtualized
// hosts drift.
//
// Reading the numbers: the batched path wins by (a) deduplicating sketch /
// hash-map probes and importance updates per unique id, (b) removing one
// virtual dispatch and one variable-size memcpy dispatch per id, and
// (c) software-prefetching gather rows. How much of that shows up as
// lookups/sec depends strongly on the host: an out-of-order core already
// overlaps the independent per-id misses of the scalar loop, and on
// single-vCPU virtualized hosts (nested paging, shallow miss queues) that
// baseline sits close to the machine's random-access throughput, so the
// measured speedups there are conservative lower bounds of what bare-metal
// parts deliver.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "train/store_factory.h"

namespace cafe {
namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kBatchSize = 4096;
constexpr size_t kNumBatches = 26;  // one per field in the layer workload
constexpr double kZipfZ = 1.05;

/// Shrunk under --smoke so CI / check.sh pay seconds, not minutes.
struct BenchShape {
  int rounds = 9;
  uint64_t global_features = 20'000'000;
  uint64_t card_divisor = 1;
};
BenchShape g_shape;

// Workload construction (Criteo-like field shape, global + layer streams)
// and the store context are shared with bench_backward via bench_common.h,
// so the two binaries always measure the same distributions.
using bench::IdWorkload;
using bench::Median;

struct PathRates {
  double scalar_per_sec = 0.0;
  double batched_per_sec = 0.0;
  double Speedup() const { return batched_per_sec / scalar_per_sec; }
};

/// Interleaves scalar and batched rounds (median of kRounds) — virtualized
/// hosts drift over seconds, so back-to-back A/B pairs keep it fair.
PathRates MeasureLookups(EmbeddingStore* store, const IdWorkload& w,
                         std::vector<float>* out) {
  std::vector<double> scalar_ns, batched_ns;
  const size_t total = w.ids.size();
  WallTimer timer;
  for (int round = 0; round < g_shape.rounds; ++round) {
    timer.Restart();
    for (size_t k = 0; k < kNumBatches; ++k) {
      const uint64_t* batch = w.ids.data() + k * kBatchSize;
      for (size_t i = 0; i < kBatchSize; ++i) {
        store->Lookup(batch[i], out->data() + i * kDim);
      }
    }
    scalar_ns.push_back(timer.ElapsedSeconds());
    timer.Restart();
    for (size_t k = 0; k < kNumBatches; ++k) {
      store->LookupBatch(w.ids.data() + k * kBatchSize, kBatchSize,
                         out->data());
    }
    batched_ns.push_back(timer.ElapsedSeconds());
  }
  PathRates rates;
  rates.scalar_per_sec = static_cast<double>(total) / Median(scalar_ns);
  rates.batched_per_sec = static_cast<double>(total) / Median(batched_ns);
  return rates;
}

PathRates MeasureUpdates(EmbeddingStore* store, const IdWorkload& w,
                         const std::vector<float>& grads) {
  std::vector<double> scalar_ns, batched_ns;
  const size_t total = w.ids.size();
  WallTimer timer;
  for (int round = 0; round < g_shape.rounds; ++round) {
    timer.Restart();
    for (size_t k = 0; k < kNumBatches; ++k) {
      const uint64_t* batch = w.ids.data() + k * kBatchSize;
      for (size_t i = 0; i < kBatchSize; ++i) {
        store->ApplyGradient(batch[i], grads.data() + i * kDim, 0.01f);
      }
      store->Tick();
    }
    scalar_ns.push_back(timer.ElapsedSeconds());
    timer.Restart();
    for (size_t k = 0; k < kNumBatches; ++k) {
      store->ApplyGradientBatch(w.ids.data() + k * kBatchSize, kBatchSize,
                                grads.data(), 0.01f);
      store->Tick();
    }
    batched_ns.push_back(timer.ElapsedSeconds());
  }
  PathRates rates;
  rates.scalar_per_sec = static_cast<double>(total) / Median(scalar_ns);
  rates.batched_per_sec = static_cast<double>(total) / Median(batched_ns);
  return rates;
}

struct ResultRow {
  std::string workload;
  std::string store;
  double cr = 0.0;
  PathRates lookups;
  PathRates updates;
  double memory_mb = 0.0;
};

void RunWorkload(const IdWorkload& w, std::vector<ResultRow>* rows) {
  struct MethodCase {
    const char* name;
    double cr;
  };
  const MethodCase cases[] = {
      {"hash", 4.0},     {"qr", 4.0},    {"robe", 4.0},   {"ada", 3.0},
      {"offline", 10.0}, {"cafe", 10.0}, {"cafe-ml", 10.0},
  };

  std::printf("\nworkload \"%s\": %zu batches x %zu ids, %.1fM features\n",
              w.name.c_str(), kNumBatches, kBatchSize,
              static_cast<double>(w.total_features) / 1e6);
  std::printf("%-8s %6s %12s %12s %8s %12s %12s %8s %9s\n", "method", "CR",
              "lookup/s", "lookupB/s", "speedup", "update/s", "updateB/s",
              "speedup", "MB");
  bench::PrintRule(100);

  Rng grad_rng(7);
  std::vector<float> grads(kBatchSize * kDim);
  for (float& g : grads) g = grad_rng.UniformFloat(-0.1f, 0.1f);
  std::vector<float> out(kBatchSize * kDim);

  for (const MethodCase& c : cases) {
    auto store_or = MakeStore(c.name, bench::MakeMicrobenchContext(w, kDim, c.cr));
    if (!store_or.ok()) {
      std::printf("%-8s %6.0f  infeasible: %s\n", c.name, c.cr,
                  store_or.status().ToString().c_str());
      continue;
    }
    EmbeddingStore* store = store_or->get();
    // Populate adaptive state (hot sets, scores) before measuring so cafe
    // and ada serve their steady-state mix of hot and cold paths.
    for (size_t k = 0; k < kNumBatches; ++k) {
      store->ApplyGradientBatch(w.ids.data() + k * kBatchSize, kBatchSize,
                                grads.data(), 0.01f);
      store->Tick();
    }
    const PathRates lookups = MeasureLookups(store, w, &out);
    const PathRates updates = MeasureUpdates(store, w, grads);
    const double mb =
        static_cast<double>(store->MemoryBytes()) / (1024.0 * 1024.0);
    std::printf("%-8s %6.0f %12.3e %12.3e %7.2fx %12.3e %12.3e %7.2fx %9.1f\n",
                c.name, c.cr, lookups.scalar_per_sec, lookups.batched_per_sec,
                lookups.Speedup(), updates.scalar_per_sec,
                updates.batched_per_sec, updates.Speedup(), mb);
    rows->push_back({w.name, c.name, c.cr, lookups, updates, mb});
  }
  bench::PrintRule(100);
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<ResultRow>& rows) {
  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "lookup_batch");
  json.Field("smoke", smoke);
  json.Key("config");
  json.BeginObject();
  json.Field("dim", static_cast<uint64_t>(kDim));
  json.Field("batch_size", static_cast<uint64_t>(kBatchSize));
  json.Field("num_batches", static_cast<uint64_t>(kNumBatches));
  json.Field("zipf_z", kZipfZ);
  json.Field("rounds", g_shape.rounds);
  json.Field("global_features", g_shape.global_features);
  json.EndObject();
  bench::WriteHostInfo(&json);
  json.Key("results");
  json.BeginArray();
  for (const ResultRow& row : rows) {
    json.BeginObject();
    json.Field("workload", row.workload);
    json.Field("store", row.store);
    json.Field("cr", row.cr);
    json.Field("scalar_lookups_per_sec", row.lookups.scalar_per_sec);
    json.Field("batched_lookups_per_sec", row.lookups.batched_per_sec);
    json.Field("lookup_speedup", row.lookups.Speedup());
    json.Field("scalar_updates_per_sec", row.updates.scalar_per_sec);
    json.Field("batched_updates_per_sec", row.updates.batched_per_sec);
    json.Field("update_speedup", row.updates.Speedup());
    json.Field("memory_mb", row.memory_mb);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  bench::WriteJsonFile(path, json);
}

void Run(const bench::BenchArgs& args) {
  if (args.smoke) {
    g_shape.rounds = 3;
    g_shape.global_features = 500'000;
    g_shape.card_divisor = 40;
  }
  bench::PrintTitle(
      "bench_lookup_batch: scalar (per-id virtual) vs batched embedding "
      "execution\n(batch 4096, dim 16, Zipf z = 1.05, interleaved medians)");
  const IdWorkload global = bench::MakeGlobalIdWorkload(
      g_shape.global_features, kNumBatches, kBatchSize, kZipfZ);
  const IdWorkload layer = bench::MakeLayerIdWorkload(
      g_shape.card_divisor, kNumBatches, kBatchSize, kZipfZ);
  std::vector<ResultRow> rows;
  RunWorkload(global, &rows);
  RunWorkload(layer, &rows);
  std::printf(
      "\nlookupB/updateB = the batched LookupBatch/ApplyGradientBatch "
      "paths.\nBatched gains = probe dedup per unique id + devirtualized, "
      "prefetched gathers;\non virtualized single-core hosts the per-id "
      "baseline already saturates the\nmemory system, so these ratios are "
      "lower bounds of bare-metal behavior.\n");
  if (!args.json_path.empty()) {
    WriteJson(args.json_path, args.smoke, rows);
  }
}

}  // namespace
}  // namespace cafe

int main(int argc, char** argv) {
  cafe::Run(cafe::bench::ParseBenchArgs(argc, argv));
  return 0;
}
