// Microbenchmark for the two trainer-side copies this refactor deleted:
//
// 1. Backward: staged vs strided ApplyGradientBatch, every store. The
//    staged path is the pre-refactor EmbeddingLayerGroup::Backward — clamp
//    each gradient row out of the model's sample-major gradient tensor into
//    a contiguous staging buffer, then the packed batch call. The strided
//    path hands the store the tensor pointer + stride and fuses the clamp
//    into the scatter/accumulate read. Two workloads, as in
//    bench_lookup_batch: one Zipf stream over the whole id space ("global")
//    and the per-field layer stream the real consumer stack produces
//    ("layer"). Staged and strided rounds are interleaved on the SAME store
//    and the median of kRounds is reported, because virtualized hosts
//    drift. The two paths are bit-identical (tests/batched_parity_test.cc);
//    this bench only prices them.
//
// 2. Snapshot-cut trainer pause: full SaveState vs incremental SaveDelta at
//    three dirty fractions. Each round trains a fixed 8-batch interval with
//    ids drawn from a restricted prefix of the id space (1%, 10%, 100%),
//    then times BOTH SaveState and SaveDelta on the same state — the full
//    cut's pause is O(store bytes) and flat across fractions; the delta
//    cut's pause follows the write set. Maintenance ticks (cafe decay, ada
//    realloc) run on their normal cadence, so occasional intervals ship the
//    full sketch/score sections; the MEDIAN is reported (the steady-state
//    pause), which is what the rollout path pays between ticks.
//
// 3. Sharded backward scaling: the strided scatter fanned out over a
//    ThreadPool at 1..N row shards (bit-identical to serial), every store,
//    reported as updates/sec per thread count — the backward_scaling
//    section of the JSON.
//
// Usage: bench_backward [--smoke] [--json <path>] [--threads <n>]
//   --smoke    CI-sized spaces and fewer rounds
//   --json     write BENCH_backward.json-style machine-readable results
//   --threads  top of the scaling sweep (default: host concurrency, min 2)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "io/serialize.h"
#include "train/store_factory.h"

namespace cafe {
namespace {

constexpr uint32_t kDim = 16;
constexpr size_t kBatchSize = 4096;
constexpr size_t kNumBatches = 26;  // one per field in the layer workload
constexpr double kZipfZ = 1.05;
constexpr float kClip = 1.0f;
constexpr float kLr = 0.01f;

struct BenchShape {
  int rounds = 9;
  uint64_t global_features = 2'000'000;
  uint64_t card_divisor = 8;  // layer cards = kMicroFieldCards / divisor
};

using bench::IdWorkload;
using bench::Median;

struct MethodCase {
  const char* name;
  double cr;
};

// All 9 stores (full at CR 1 by definition; the rest at the ratios the
// other microbenches use).
const MethodCase kAllStores[] = {
    {"full", 1.0},     {"hash", 4.0},  {"qr", 4.0},     {"robe", 4.0},
    {"ada", 3.0},      {"mde", 2.0},   {"offline", 10.0}, {"cafe", 10.0},
    {"cafe-ml", 10.0},
};

struct BackwardRates {
  double staged_per_sec = 0.0;
  double strided_per_sec = 0.0;
  double Speedup() const { return strided_per_sec / staged_per_sec; }
};

/// The model-side gradient layout both paths read from: sample-major rows
/// of kGradStride floats, field f's block at column f*kDim. The global
/// workload uses one "field" (stride == width of one block per batch).
BackwardRates MeasureBackward(EmbeddingStore* store, const IdWorkload& w,
                              const std::vector<float>& grads,
                              size_t grad_stride, int rounds,
                              std::vector<float>* staging) {
  std::vector<double> staged_s, strided_s;
  const size_t total = w.ids.size();
  // Layer workload: field f's gradient block sits at column f*kDim of the
  // wide tensor. Global workload: one packed block (stride == kDim).
  const bool per_field = grad_stride != kDim;
  WallTimer timer;
  for (int round = 0; round < rounds; ++round) {
    // Staged reference: the pre-refactor per-field clip-and-copy.
    timer.Restart();
    for (size_t f = 0; f < kNumBatches; ++f) {
      const float* src = grads.data() + (per_field ? f * kDim : 0);
      float* dst = staging->data();
      for (size_t b = 0; b < kBatchSize; ++b) {
        const float* g = src + b * grad_stride;
        float* row = dst + b * kDim;
        for (uint32_t k = 0; k < kDim; ++k) {
          row[k] = std::clamp(g[k], -kClip, kClip);
        }
      }
      store->ApplyGradientBatch(w.ids.data() + f * kBatchSize, kBatchSize,
                                staging->data(), kLr);
      store->Tick();
    }
    staged_s.push_back(timer.ElapsedSeconds());
    // Strided path: same ids, same tensor, clamp fused into the store.
    timer.Restart();
    for (size_t f = 0; f < kNumBatches; ++f) {
      const float* src = grads.data() + (per_field ? f * kDim : 0);
      store->ApplyGradientBatch(w.ids.data() + f * kBatchSize, kBatchSize,
                                src, grad_stride, kLr, kClip);
      store->Tick();
    }
    strided_s.push_back(timer.ElapsedSeconds());
  }
  BackwardRates rates;
  rates.staged_per_sec = static_cast<double>(total) / Median(staged_s);
  rates.strided_per_sec = static_cast<double>(total) / Median(strided_s);
  return rates;
}

struct BackwardRow {
  std::string workload;
  std::string store;
  double cr = 0.0;
  BackwardRates rates;
  double memory_mb = 0.0;
};

void RunBackwardWorkload(const IdWorkload& w, const BenchShape& shape,
                         std::vector<BackwardRow>* rows) {
  // The layer workload's gradient tensor is the models' real layout
  // (kNumBatches * kDim wide); the global workload is a packed single
  // block, so the staged path's copy is the only difference.
  const size_t grad_stride =
      w.name == "layer" ? kNumBatches * kDim : kDim;
  Rng grad_rng(7);
  std::vector<float> grads(kBatchSize * grad_stride);
  // Wide enough that the clamp engages (as training gradients do at high
  // compression), so the fused clip is actually exercised.
  for (float& g : grads) g = grad_rng.UniformFloat(-2.0f, 2.0f);
  std::vector<float> staging(kBatchSize * kDim);

  std::printf("\nworkload \"%s\": %zu batches x %zu ids, %.1fM features, "
              "grad stride %zu\n",
              w.name.c_str(), kNumBatches, kBatchSize,
              static_cast<double>(w.total_features) / 1e6, grad_stride);
  std::printf("%-8s %6s %14s %14s %8s %9s\n", "method", "CR", "staged upd/s",
              "strided upd/s", "speedup", "MB");
  bench::PrintRule(72);
  for (const MethodCase& c : kAllStores) {
    auto store_or = MakeStore(c.name, bench::MakeMicrobenchContext(w, kDim, c.cr));
    if (!store_or.ok()) {
      std::printf("%-8s %6.0f  infeasible: %s\n", c.name, c.cr,
                  store_or.status().ToString().c_str());
      continue;
    }
    EmbeddingStore* store = store_or->get();
    // Warm adaptive state (hot sets, scores) so the steady-state mix of
    // paths is what gets measured.
    for (size_t f = 0; f < kNumBatches; ++f) {
      store->ApplyGradientBatch(w.ids.data() + f * kBatchSize, kBatchSize,
                                grads.data(), grad_stride, kLr, kClip);
      store->Tick();
    }
    const BackwardRates rates =
        MeasureBackward(store, w, grads, grad_stride, shape.rounds, &staging);
    const double mb =
        static_cast<double>(store->MemoryBytes()) / (1024.0 * 1024.0);
    std::printf("%-8s %6.0f %14.3e %14.3e %7.2fx %9.1f\n", c.name, c.cr,
                rates.staged_per_sec, rates.strided_per_sec, rates.Speedup(),
                mb);
    rows->push_back({w.name, c.name, c.cr, rates, mb});
  }
  bench::PrintRule(72);
}

struct ScalingRow {
  std::string store;
  double cr = 0.0;
  uint64_t threads = 0;
  double updates_per_sec = 0.0;
  double speedup_vs_serial = 0.0;
};

/// Thread counts to sweep: powers of two through max(4, `max_threads`),
/// plus `max_threads` itself — 4 is always measured because that is the
/// scaling point the README table tracks across hosts.
std::vector<size_t> ScalingSweep(size_t max_threads) {
  std::vector<size_t> sweep;
  for (size_t t = 1; t <= std::max<size_t>(4, max_threads); t *= 2) {
    sweep.push_back(t);
  }
  if (std::find(sweep.begin(), sweep.end(), max_threads) == sweep.end()) {
    sweep.push_back(max_threads);
    std::sort(sweep.begin(), sweep.end());
  }
  return sweep;
}

/// The sharded-backward scaling sweep: every store, strided scatter through
/// ApplyGradientBatchSharded at each thread count (1 = the serial path), a
/// FRESH warmed store per point so adaptive state is identical across the
/// sweep. The parallel path is bit-identical to serial
/// (tests/batched_parity_test.cc ShardedBackward battery); this only prices
/// the fan-out.
void RunBackwardScaling(const IdWorkload& w, const BenchShape& shape,
                        size_t max_threads, std::vector<ScalingRow>* rows) {
  const size_t grad_stride = kNumBatches * kDim;
  Rng grad_rng(7);
  std::vector<float> grads(kBatchSize * grad_stride);
  for (float& g : grads) g = grad_rng.UniformFloat(-2.0f, 2.0f);
  const std::vector<size_t> sweep = ScalingSweep(max_threads);

  std::printf(
      "\nsharded backward scaling (workload \"%s\", up to %zu threads, "
      "median of %d rounds)\n",
      w.name.c_str(), sweep.back(), shape.rounds);
  std::printf("%-8s %6s", "method", "CR");
  for (const size_t t : sweep) std::printf(" %9zu thr", t);
  std::printf("  speedup@max\n");
  bench::PrintRule(72);

  for (const MethodCase& c : kAllStores) {
    double serial_rate = 0.0;
    std::printf("%-8s %6.0f", c.name, c.cr);
    for (const size_t t : sweep) {
      auto store_or =
          MakeStore(c.name, bench::MakeMicrobenchContext(w, kDim, c.cr));
      if (!store_or.ok()) {
        std::printf("  infeasible");
        break;
      }
      EmbeddingStore* store = store_or->get();
      ThreadPool pool(t);
      ThreadPool* pool_ptr = t > 1 ? &pool : nullptr;
      // Warm adaptive state through the same path that gets measured.
      for (size_t f = 0; f < kNumBatches; ++f) {
        store->ApplyGradientBatchSharded(w.ids.data() + f * kBatchSize,
                                         kBatchSize, grads.data() + f * kDim,
                                         grad_stride, kLr, kClip, pool_ptr,
                                         static_cast<uint32_t>(t));
        store->Tick();
      }
      std::vector<double> seconds;
      WallTimer timer;
      for (int round = 0; round < shape.rounds; ++round) {
        timer.Restart();
        for (size_t f = 0; f < kNumBatches; ++f) {
          store->ApplyGradientBatchSharded(
              w.ids.data() + f * kBatchSize, kBatchSize,
              grads.data() + f * kDim, grad_stride, kLr, kClip, pool_ptr,
              static_cast<uint32_t>(t));
          store->Tick();
        }
        seconds.push_back(timer.ElapsedSeconds());
      }
      const double rate =
          static_cast<double>(w.ids.size()) / Median(seconds);
      if (t == 1) serial_rate = rate;
      std::printf(" %13.3e", rate);
      rows->push_back({c.name, c.cr, static_cast<uint64_t>(t), rate,
                       serial_rate > 0.0 ? rate / serial_rate : 0.0});
    }
    if (!rows->empty() && rows->back().store == c.name) {
      std::printf("  %9.2fx", rows->back().speedup_vs_serial);
    }
    std::printf("\n");
  }
  bench::PrintRule(72);
}

struct CutRow {
  std::string store;
  double cr = 0.0;
  double dirty_fraction = 0.0;
  double full_us = 0.0;
  double delta_us = 0.0;
  uint64_t full_bytes = 0;
  uint64_t delta_bytes = 0;
  double PauseSpeedup() const { return full_us / delta_us; }
};

/// One interval of updates restricted to the first `fraction` of the id
/// space, then both cut flavors timed on the same state.
void RunSnapshotCuts(const IdWorkload& w, const BenchShape& shape,
                     std::vector<CutRow>* rows) {
  constexpr size_t kIntervalBatches = 8;
  const double fractions[] = {0.01, 0.10, 1.00};

  std::printf(
      "\nsnapshot-cut trainer pause (workload \"%s\", %zu-batch intervals, "
      "median of %d cuts)\n",
      w.name.c_str(), kIntervalBatches, shape.rounds);
  std::printf("%-8s %6s %8s %12s %12s %8s %12s %12s\n", "method", "CR",
              "dirty", "full us", "delta us", "pause x", "full bytes",
              "delta bytes");
  bench::PrintRule(86);

  for (const MethodCase& c : kAllStores) {
    for (const double fraction : fractions) {
      auto store_or = MakeStore(c.name, bench::MakeMicrobenchContext(w, kDim, c.cr));
      if (!store_or.ok()) {
        std::printf("%-8s %6.0f  infeasible\n", c.name, c.cr);
        break;
      }
      EmbeddingStore* store = store_or->get();
      const uint64_t range = std::max<uint64_t>(
          1, static_cast<uint64_t>(fraction *
                                   static_cast<double>(w.total_features)));
      Rng rng(1234);
      ZipfDistribution zipf(range, kZipfZ);
      std::vector<uint64_t> ids(kBatchSize);
      std::vector<float> grads(kBatchSize * kDim);
      for (float& g : grads) g = rng.UniformFloat(-0.5f, 0.5f);
      auto train_interval = [&]() {
        for (size_t k = 0; k < kIntervalBatches; ++k) {
          for (uint64_t& id : ids) id = zipf.SampleIndex(rng);
          store->ApplyGradientBatch(ids.data(), kBatchSize, grads.data(),
                                    kLr);
          store->Tick();
        }
      };
      // Warm, cut the base, switch tracking on.
      train_interval();
      {
        io::Writer base;
        CAFE_CHECK(store->SaveState(&base).ok());
        CAFE_CHECK(store->EnableDirtyTracking().ok());
      }
      std::vector<double> full_us, delta_us;
      uint64_t full_bytes = 0, delta_bytes = 0;
      WallTimer timer;
      for (int round = 0; round < shape.rounds; ++round) {
        train_interval();
        timer.Restart();
        io::Writer full;
        CAFE_CHECK(store->SaveState(&full).ok());
        full_us.push_back(timer.ElapsedMicros());
        full_bytes = full.size();
        timer.Restart();
        io::Writer delta;
        CAFE_CHECK(store->SaveDelta(&delta).ok());
        delta_us.push_back(timer.ElapsedMicros());
        delta_bytes = delta.size();
      }
      CutRow row;
      row.store = c.name;
      row.cr = c.cr;
      row.dirty_fraction = fraction;
      row.full_us = Median(full_us);
      row.delta_us = Median(delta_us);
      row.full_bytes = full_bytes;
      row.delta_bytes = delta_bytes;
      std::printf("%-8s %6.0f %7.0f%% %12.1f %12.1f %7.1fx %12llu %12llu\n",
                  c.name, c.cr, 100.0 * fraction, row.full_us, row.delta_us,
                  row.PauseSpeedup(),
                  static_cast<unsigned long long>(row.full_bytes),
                  static_cast<unsigned long long>(row.delta_bytes));
      rows->push_back(row);
    }
  }
  bench::PrintRule(86);
}

void WriteJson(const std::string& path, const BenchShape& shape, bool smoke,
               const std::vector<BackwardRow>& backward,
               const std::vector<ScalingRow>& scaling,
               const std::vector<CutRow>& cuts) {
  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "backward");
  json.Field("smoke", smoke);
  // Whether the metrics/trace instrumentation was compiled in for this run.
  // scripts/obs_overhead.sh builds both variants and merges the comparison
  // into this file under "obs_overhead".
#ifdef CAFE_OBS_DISABLED
  json.Field("obs_enabled", false);
#else
  json.Field("obs_enabled", true);
#endif
  json.Key("config");
  json.BeginObject();
  json.Field("dim", static_cast<uint64_t>(kDim));
  json.Field("batch_size", static_cast<uint64_t>(kBatchSize));
  json.Field("num_batches", static_cast<uint64_t>(kNumBatches));
  json.Field("zipf_z", kZipfZ);
  json.Field("clip", static_cast<double>(kClip));
  json.Field("rounds", shape.rounds);
  json.Field("global_features", shape.global_features);
  json.EndObject();
  bench::WriteHostInfo(&json);
  json.Key("backward");
  json.BeginArray();
  for (const BackwardRow& row : backward) {
    json.BeginObject();
    json.Field("workload", row.workload);
    json.Field("store", row.store);
    json.Field("cr", row.cr);
    json.Field("staged_updates_per_sec", row.rates.staged_per_sec);
    json.Field("strided_updates_per_sec", row.rates.strided_per_sec);
    json.Field("speedup", row.rates.Speedup());
    json.Field("memory_mb", row.memory_mb);
    json.EndObject();
  }
  json.EndArray();
  json.Key("backward_scaling");
  json.BeginArray();
  for (const ScalingRow& row : scaling) {
    json.BeginObject();
    json.Field("store", row.store);
    json.Field("cr", row.cr);
    json.Field("threads", row.threads);
    json.Field("updates_per_sec", row.updates_per_sec);
    json.Field("speedup_vs_serial", row.speedup_vs_serial);
    json.EndObject();
  }
  json.EndArray();
  json.Key("snapshot_cut");
  json.BeginArray();
  for (const CutRow& row : cuts) {
    json.BeginObject();
    json.Field("store", row.store);
    json.Field("cr", row.cr);
    json.Field("dirty_fraction", row.dirty_fraction);
    json.Field("full_cut_us", row.full_us);
    json.Field("delta_cut_us", row.delta_us);
    json.Field("pause_speedup", row.PauseSpeedup());
    json.Field("full_bytes", row.full_bytes);
    json.Field("delta_bytes", row.delta_bytes);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  bench::WriteJsonFile(path, json);
}

void Run(const bench::BenchArgs& args) {
  BenchShape shape;
  if (args.smoke) {
    shape.rounds = 3;
    shape.global_features = 200'000;
    shape.card_divisor = 80;
  }
  bench::PrintTitle(
      "bench_backward: staged (clip+copy) vs strided (fused-clip) backward, "
      "and\nfull vs incremental snapshot-cut trainer pause\n(batch 4096, "
      "dim 16, Zipf z = 1.05, interleaved medians)");

  std::vector<BackwardRow> backward_rows;
  const IdWorkload global = bench::MakeGlobalIdWorkload(
      shape.global_features, kNumBatches, kBatchSize, kZipfZ);
  const IdWorkload layer = bench::MakeLayerIdWorkload(
      shape.card_divisor, kNumBatches, kBatchSize, kZipfZ);
  RunBackwardWorkload(global, shape, &backward_rows);
  RunBackwardWorkload(layer, shape, &backward_rows);

  std::vector<ScalingRow> scaling_rows;
  RunBackwardScaling(layer, shape, args.threads, &scaling_rows);

  std::vector<CutRow> cut_rows;
  RunSnapshotCuts(layer, shape, &cut_rows);

  std::printf(
      "\nBackward: the staged column is the pre-refactor path (per-field "
      "clamp into a\ncontiguous staging buffer + packed call); strided reads "
      "the model's gradient\ntensor in place with the clamp fused into the "
      "scatter. Snapshot cuts: the full\ncolumn is the O(store) SaveState "
      "pause; delta is the O(dirty-rows) SaveDelta\npause the incremental "
      "rollout path takes — it follows the dirty fraction, not\nthe store "
      "size.\n");

  if (!args.json_path.empty()) {
    WriteJson(args.json_path, shape, args.smoke, backward_rows, scaling_rows,
              cut_rows);
  }
}

}  // namespace
}  // namespace cafe

int main(int argc, char** argv) {
  cafe::Run(cafe::bench::ParseBenchArgs(argc, argv));
  return 0;
}
