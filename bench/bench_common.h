#ifndef CAFE_BENCH_BENCH_COMMON_H_
#define CAFE_BENCH_BENCH_COMMON_H_

// Shared plumbing for the per-figure bench binaries: dataset construction
// from presets, method instantiation at a compression ratio, one-pass
// training, and table printing. Every figure binary prints the same rows /
// series the paper reports so shapes can be compared side by side.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/zipf.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "io/serialize.h"
#include "obs/json_writer.h"
#include "train/model_factory.h"
#include "train/store_factory.h"
#include "train/trainer.h"

namespace cafe {
namespace bench {

/// One prepared dataset plus its model hyperparameters.
struct Workload {
  std::unique_ptr<SyntheticCtrDataset> dataset;
  DatasetPreset preset;
  ModelConfig model_config;
  TrainOptions train_options;
};

inline Workload MakeWorkload(DatasetPreset preset,
                             const std::string& model = "dlrm") {
  Workload w;
  w.preset = preset;
  auto ds = SyntheticCtrDataset::Generate(preset.data);
  CAFE_CHECK(ds.ok()) << ds.status().ToString();
  w.dataset = std::move(ds).value();
  if (preset.data.name == "kdd12-like") {
    w.dataset->ShuffleSamples(preset.data.seed ^ 0x5f5fULL);
  }
  w.model_config.num_fields = w.dataset->num_fields();
  w.model_config.emb_dim = preset.embedding_dim;
  w.model_config.num_numerical = preset.data.num_numerical;
  w.model_config.top_hidden = {64, 32};
  w.model_config.emb_lr = 0.2f;
  w.model_config.dense_lr = 0.05f;
  w.model_config.dense_optimizer = "adagrad";
  w.model_config.seed = 1234;
  w.train_options.batch_size = 128;
  return w;
}

/// Builds the factory context for `workload` at compression ratio `cr`.
inline StoreFactoryContext MakeContext(const Workload& w, double cr,
                                       bool with_offline_stats = false) {
  StoreFactoryContext context;
  context.embedding.total_features = w.dataset->layout().total_features();
  context.embedding.dim = w.preset.embedding_dim;
  context.embedding.compression_ratio = cr;
  context.embedding.seed = 97;
  context.layout = w.dataset->layout();
  context.cafe.decay_interval = 50;
  // Our passes are a few hundred iterations; reallocate on the same
  // cadence as CAFE's maintenance so AdaEmbed's scan cost (its latency
  // signature in Fig. 13) actually exercises.
  context.ada.realloc_interval = 50;
  if (with_offline_stats) {
    for (const auto& [id, count] :
         w.dataset->FeatureFrequencies(0, w.dataset->train_size())) {
      context.offline_hot_ids.push_back(id);
    }
  }
  return context;
}

struct RunOutcome {
  bool feasible = false;
  TrainResult result;
};

/// Trains `model_name` over `method` at ratio `cr`; infeasible methods
/// (beyond their compression limit) are reported rather than fatal —
/// matching the truncated curves in the paper's figures.
inline RunOutcome RunMethod(const Workload& w, const std::string& method,
                            double cr, const std::string& model_name = "dlrm",
                            size_t curve_points = 0) {
  RunOutcome outcome;
  StoreFactoryContext context = MakeContext(w, cr, method == "offline");
  auto store = MakeStore(method, context);
  if (!store.ok()) return outcome;
  auto model = MakeModel(model_name, w.model_config, store->get());
  CAFE_CHECK(model.ok()) << model.status().ToString();
  TrainOptions options = w.train_options;
  options.curve_points = curve_points;
  outcome.feasible = true;
  outcome.result = TrainOnePass(model->get(), *w.dataset, options);
  return outcome;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

/// Formats a metric or "-" for infeasible points.
inline std::string Cell(bool feasible, double value) {
  if (!feasible) return "      -";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%7.4f", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Shared id-stream workloads for the store microbenches (bench_lookup_batch,
// bench_backward): ONE definition of the Criteo-like field shape and the
// global/layer streams, so the two binaries always measure the same
// distributions and their BENCH_*.json files stay comparable across PRs.
// ---------------------------------------------------------------------------

/// Criteo-like categorical field cardinalities: a few huge fields, a long
/// tail of small ones (Table 2 regime). Total ~20.6M features at divisor 1.
inline constexpr uint64_t kMicroFieldCards[] = {
    9980333, 5278081, 3172477, 1254577, 492877, 239747, 98506, 39979,
    17139,   7420,    3206,    1381,    612,    253,    105,   48,
    24,      14,      10,      7,       4,      4,      3,     3,
    3,       2};
inline constexpr size_t kNumMicroFields =
    sizeof(kMicroFieldCards) / sizeof(kMicroFieldCards[0]);

struct IdWorkload {
  std::string name;
  uint64_t total_features = 0;
  FieldLayout layout;
  /// num_batches batches of batch_size ids each, concatenated; in the
  /// layer workload batch f holds only field f's ids.
  std::vector<uint64_t> ids;
};

/// One Zipf stream over a single `total_features`-wide id space — the
/// whole-table view of a CTR workload.
inline IdWorkload MakeGlobalIdWorkload(uint64_t total_features,
                                       size_t num_batches, size_t batch_size,
                                       double zipf_z) {
  IdWorkload w;
  w.name = "global";
  w.total_features = total_features;
  w.layout = FieldLayout({total_features});
  Rng rng(2024);
  ZipfDistribution zipf(total_features, zipf_z);
  w.ids.resize(num_batches * batch_size);
  for (uint64_t& id : w.ids) id = zipf.SampleIndex(rng);
  return w;
}

/// The per-field stream the refactored consumer stack actually produces:
/// one batch per field, Zipf within each field, cardinalities scaled by
/// `card_divisor` (1 = full Criteo-like scale; larger = smoke-sized).
inline IdWorkload MakeLayerIdWorkload(uint64_t card_divisor,
                                      size_t num_batches, size_t batch_size,
                                      double zipf_z) {
  CAFE_CHECK(num_batches <= kNumMicroFields);
  IdWorkload w;
  w.name = "layer";
  std::vector<uint64_t> cards;
  std::vector<uint64_t> offsets;
  for (size_t f = 0; f < kNumMicroFields; ++f) {
    const uint64_t scaled =
        std::max<uint64_t>(2, kMicroFieldCards[f] / card_divisor);
    offsets.push_back(w.total_features);
    cards.push_back(scaled);
    w.total_features += scaled;
  }
  w.layout = FieldLayout(cards);
  Rng rng(4096);
  w.ids.reserve(num_batches * batch_size);
  for (size_t f = 0; f < num_batches; ++f) {
    ZipfDistribution zipf(cards[f], zipf_z);
    for (size_t i = 0; i < batch_size; ++i) {
      w.ids.push_back(offsets[f] + zipf.SampleIndex(rng));
    }
  }
  return w;
}

/// Store-factory context the microbenches share: maintenance on a 100-
/// iteration cadence and an offline hot set of the top 5% of ids (capped).
inline StoreFactoryContext MakeMicrobenchContext(const IdWorkload& w,
                                                 uint32_t dim, double cr) {
  StoreFactoryContext context;
  context.embedding.total_features = w.total_features;
  context.embedding.dim = dim;
  context.embedding.compression_ratio = cr;
  context.embedding.seed = 97;
  context.layout = w.layout;
  context.cafe.decay_interval = 100;
  context.ada.realloc_interval = 100;
  const uint64_t hot = std::min<uint64_t>(w.total_features / 20, 1'000'000);
  for (uint64_t id = 0; id < hot; ++id) {
    context.offline_hot_ids.push_back(id);
  }
  return context;
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// JSON emitter for the machine-readable BENCH_<name>.json result files
/// every microbench writes under --json. Promoted to src/obs/json_writer.h
/// (the observability layer shares it for the metrics snapshot and the
/// online-pipeline timeline); aliased here so bench code keeps spelling it
/// bench::JsonWriter.
using JsonWriter = ::cafe::obs::JsonWriter;

/// Emits the shared "host" section (what the numbers were measured on) into
/// an open object.
inline void WriteHostInfo(JsonWriter* json) {
  json->Key("host");
  json->BeginObject();
  json->Field("hardware_concurrency",
              static_cast<uint64_t>(std::thread::hardware_concurrency()));
#ifdef NDEBUG
  json->Field("build", "release");
#else
  json->Field("build", "debug");
#endif
#if defined(__clang__)
  json->Field("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  json->Field("compiler", "gcc " __VERSION__);
#else
  json->Field("compiler", "unknown");
#endif
  json->EndObject();
}

/// Writes a finished JSON document to `path` (atomic rename, like the
/// checkpoint files). Fatal on failure: a bench asked for --json must not
/// silently produce nothing.
inline void WriteJsonFile(const std::string& path, const JsonWriter& json) {
  const Status status = io::WriteFileAtomic(path, json.str());
  CAFE_CHECK(status.ok()) << "failed to write " << path << ": "
                          << status.ToString();
  std::printf("\nwrote %s (%zu bytes)\n", path.c_str(), json.str().size());
}

/// Shared flag parsing for the microbench binaries:
///   [--smoke] [--json <path>] [--threads <n>] [--kill-at-generation <g>]
struct BenchArgs {
  bool smoke = false;
  std::string json_path;  // empty = no JSON output
  /// Worker threads for the benches' parallel sections (serving workers,
  /// hot-swap clients). Defaults to the host's concurrency, floor 2, so
  /// single-core CI still exercises the multi-threaded paths.
  size_t threads = std::max<size_t>(2, std::thread::hardware_concurrency());
  /// bench_replication's rejoin scenario: kill the durable replica once it
  /// has applied this generation (0 = the bench's default kill point). The
  /// rejoin timings (rejoin_delta_us / rejoin_base_us) are always measured;
  /// the flag moves WHERE in the stream the outage starts.
  uint64_t kill_at_generation = 0;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json needs a file path\n");
        std::exit(2);
      }
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc || std::atoi(argv[i + 1]) <= 0) {
        std::fprintf(stderr, "--threads needs a positive count\n");
        std::exit(2);
      }
      args.threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--kill-at-generation") == 0) {
      if (i + 1 >= argc || std::atoi(argv[i + 1]) <= 0) {
        std::fprintf(stderr, "--kill-at-generation needs a positive count\n");
        std::exit(2);
      }
      args.kill_at_generation = static_cast<uint64_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (usage: %s [--smoke] [--json "
                   "<path>] [--threads <n>] [--kill-at-generation <g>])\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace bench
}  // namespace cafe

#endif  // CAFE_BENCH_BENCH_COMMON_H_
