#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/logging.h"
#include "core/cafe_embedding.h"
#include "train/metrics.h"
#include "train/model_factory.h"
#include "train/trainer.h"

namespace perfbench {

namespace {

// Criteo-like categorical cardinalities, the same shape as the store
// microbenches' field layout: a few huge fields and a long tail (20.6M ids).
constexpr uint64_t kFieldCards[] = {
    9980333, 5278081, 3172477, 1254577, 492877, 239747, 98506, 39979,
    17139,   7420,    3206,    1381,    612,    253,    105,   48,
    24,      14,      10,      7,       4,      4,      3,     3,
    3,       2};

std::string Hex(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

}  // namespace

void Result::Exact(const std::string& name, double value) {
  exact_.push_back({name, Hex(value)});
}

bool Result::all_checks_ok() const {
  for (const CheckRow& check : checks_) {
    if (!check.ok) return false;
  }
  return true;
}

cafe::SyntheticDatasetConfig DataConfig(const Args& args) {
  cafe::SyntheticDatasetConfig config;
  config.name = "criteo-shaped";
  config.field_cardinalities.assign(std::begin(kFieldCards),
                                    std::end(kFieldCards));
  config.num_numerical = 13;
  config.num_days = 8;
  config.zipf_z = 1.1;
  config.num_samples = static_cast<uint64_t>(config.num_days) *
                       kDaySamplesPerSecond *
                       static_cast<uint64_t>(args.seconds);
  config.seed = args.seed;
  return config;
}

std::unique_ptr<cafe::SyntheticCtrDataset> MakeData(const Args& args) {
  auto data = cafe::SyntheticCtrDataset::Generate(DataConfig(args));
  CAFE_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

cafe::ModelConfig DlrmConfig() {
  cafe::ModelConfig config;
  config.num_fields = std::size(kFieldCards);
  config.emb_dim = kDim;
  config.num_numerical = 13;
  config.top_hidden = {64, 32};
  config.emb_lr = 0.2f;
  config.dense_lr = 0.05f;
  config.dense_optimizer = "adagrad";
  config.seed = 1234;
  return config;
}

cafe::StoreFactoryContext CafeContext(const cafe::SyntheticCtrDataset& data,
                                      double compression_ratio) {
  cafe::StoreFactoryContext context;
  context.embedding.total_features = data.layout().total_features();
  context.embedding.dim = kDim;
  context.embedding.compression_ratio = compression_ratio;
  context.embedding.seed = 97;
  context.layout = data.layout();
  // Maintenance (decay + demotion scan) every 50 steps: 2% of steps tick,
  // so the p99 step time lands on tick steps instead of on their edge.
  context.cafe.decay_interval = 50;
  return context;
}

std::unique_ptr<cafe::EmbeddingStore> MakeCafe(
    const cafe::StoreFactoryContext& context) {
  auto store = cafe::MakeStore("cafe", context);
  CAFE_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::unique_ptr<cafe::RecModel> MakeDlrm(cafe::EmbeddingStore* store) {
  auto model = cafe::MakeModel("dlrm", DlrmConfig(), store);
  CAFE_CHECK(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

uint32_t TrainerThreads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

PassResult TrainPass(cafe::RecModel* model,
                     const cafe::SyntheticCtrDataset& data,
                     cafe::SnapshotManager* manager) {
  PassResult pass;
  const size_t train_end = data.train_size();
  const size_t steps = (train_end + kBatchSize - 1) / kBatchSize;
  pass.step_us.reserve(steps);
  pass.step_end_ns.reserve(steps);
  if (manager != nullptr) pass.boundary_ns.assign(steps + 1, 0);
  const int64_t t0 = NowNs();
  pass.start_ns = t0;
  for (size_t start = 0; start < train_end; start += kBatchSize) {
    const size_t size = std::min(kBatchSize, train_end - start);
    const cafe::Batch batch = data.GetBatch(start, size);
    const int64_t s0 = NowNs();
    const double loss = model->TrainStep(batch);
    const int64_t s1 = NowNs();
    pass.step_us.push_back((s1 - s0) / 1e3);
    pass.loss_sum += loss * static_cast<double>(size);
    pass.samples += size;
    ++pass.steps;
    if (manager != nullptr) {
      pass.boundary_ns[pass.steps] = s1;
      const uint64_t saves = tls_embed.saves;
      manager->AtStepBoundary(pass.steps);
      if (tls_embed.saves != saves) {
        pass.pauses_us.push_back({pass.steps, (NowNs() - s1) / 1e3});
      }
    }
    pass.step_end_ns.push_back(NowNs());
  }
  pass.wall_s = (NowNs() - t0) / 1e9;
  return pass;
}

Quality Evaluate(cafe::RecModel* model,
                 const cafe::SyntheticCtrDataset& data) {
  const cafe::EvalMetrics metrics = cafe::EvaluateMetrics(
      model, data, data.train_size(), data.num_samples());
  double clicks = 0.0;
  for (size_t i = data.train_size(); i < data.num_samples(); ++i) {
    clicks += data.labels()[i];
  }
  const double p =
      clicks / static_cast<double>(data.num_samples() - data.train_size());
  const double entropy = -(p * std::log(p) + (1.0 - p) * std::log(1.0 - p));
  return {metrics.auc, metrics.logloss, metrics.logloss / entropy};
}

double WindowedRate(const PassResult& pass) {
  std::vector<double> rates;
  const size_t steps = pass.step_end_ns.size();
  for (size_t w = 0; w < kRateWindows; ++w) {
    const size_t first = steps * w / kRateWindows;
    const size_t last = steps * (w + 1) / kRateWindows;  // exclusive
    if (last <= first) continue;
    const int64_t from = first == 0 ? pass.start_ns : pass.step_end_ns[first - 1];
    const double seconds = (pass.step_end_ns[last - 1] - from) / 1e9;
    rates.push_back(static_cast<double>((last - first) * kBatchSize) /
                    seconds);
  }
  return Median(rates);
}

void ReportTraining(const PassResult& pass, const Quality& quality,
                    Result* result) {
  const double rate = WindowedRate(pass);
  result->E2e("rate_per_s", rate, "1/s");
  result->E2e("quality.test_auc", quality.auc, "AUC");
  result->E2e("quality.test_ne", quality.ne, "ratio");
  result->Named("train.samples_per_s", rate, "samples/s");
  result->Named("train.pass_samples_per_s",
                static_cast<double>(pass.samples) / pass.wall_s, "samples/s");
  result->Named("train.test_auc", quality.auc, "AUC");
  result->Named("train.test_logloss", quality.logloss, "nats");
  result->Named("train.test_ne", quality.ne, "ratio");
  result->Named("train.steps", static_cast<double>(pass.steps), "count");
  result->Exact("train.test_auc", quality.auc);
  result->Exact("train.test_logloss", quality.logloss);
  result->Exact("train.loss_sum", pass.loss_sum);
  result->attempted += pass.steps;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void ReportStoreLayers(const TracedStore* traced,
                       const cafe::EmbeddingStore* cafe_store,
                       Result* result) {
  if (traced != nullptr) {
    result->Layer("embed.gather_rows", traced->gather_rows(), "count");
    result->Layer("embed.scatter_rows", traced->scatter_rows(), "count");
  }
  result->Layer("embed.store_bytes",
                static_cast<double>(cafe_store->MemoryBytes()), "bytes");
  const auto* cafe =
      dynamic_cast<const cafe::CafeEmbedding*>(cafe_store);
  CAFE_CHECK(cafe != nullptr);
  const auto& stats = cafe->lookup_stats();
  const double all = static_cast<double>(stats.hot + stats.medium + stats.cold);
  result->Layer("core.hot_lookup_frac",
                all > 0 ? static_cast<double>(stats.hot) / all : 0.0, "frac");
  result->Layer("core.migrations", static_cast<double>(cafe->migrations()),
                "count");
  result->Layer("core.demotions", static_cast<double>(cafe->demotions()),
                "count");
}

}  // namespace perfbench
