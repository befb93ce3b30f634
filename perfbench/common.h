// Shared pieces of the three benchmark workloads: arguments, the
// criteo-shaped input stream, the DLRM/CAFE configuration, the timed
// training loop, and the result the run prints.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "models/model.h"
#include "serve/snapshot_manager.h"
#include "train/store_factory.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Directory for files the run writes (the serving checkpoint).
  std::string work_dir = ".";
  /// Source revision, recorded in the fingerprint.
  std::string commit = "unknown";
};

/// Everything one run reports. End-to-end metrics are printed on the last
/// line of an untraced run, per-layer metrics on the last line of a traced
/// run; the named workload metrics, the ladder, the checks and the host
/// fingerprint go into the report line before it.
class Result {
 public:
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  /// A metric named as in the workload's description, for the report.
  void Named(const std::string& name, double value, const std::string& unit) {
    named_.push_back({name, value, unit});
  }
  /// Records one output check; a failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  /// Exact value the runner compares across runs (see run.py).
  void Exact(const std::string& name, double value);
  /// One serving ladder rung, already encoded as a JSON object.
  void Rung(std::string json) { rungs_.push_back(std::move(json)); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool all_checks_ok() const;
  /// Prints the report line and then the result line (last line).
  void Print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct CheckRow {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> e2e_, layer_, named_;
  std::vector<CheckRow> checks_;
  std::vector<std::pair<std::string, std::string>> exact_;
  std::vector<std::string> rungs_;
};

constexpr size_t kBatchSize = 256;
constexpr size_t kRequestSize = 64;
constexpr uint32_t kDim = 16;
/// Input scale: samples per day per second of --seconds. At 20 s the
/// training split is 700k samples (~2.7k steps, >100 snapshot cuts).
constexpr size_t kDaySamplesPerSecond = 5000;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 3;

/// The criteo-shaped stream: 26 fields with Criteo-like cardinalities
/// (20.6M ids), 13 numerical features, Zipf 1.1, 8 days of default drift;
/// day 7 is the test day.
cafe::SyntheticDatasetConfig DataConfig(const Args& args);
std::unique_ptr<cafe::SyntheticCtrDataset> MakeData(const Args& args);

cafe::ModelConfig DlrmConfig();
cafe::StoreFactoryContext CafeContext(const cafe::SyntheticCtrDataset& data,
                                      double compression_ratio);
std::unique_ptr<cafe::EmbeddingStore> MakeCafe(
    const cafe::StoreFactoryContext& context);
std::unique_ptr<cafe::RecModel> MakeDlrm(cafe::EmbeddingStore* store);

/// Trainer threads (trainer thread plus backward pool): min(4, nproc).
uint32_t TrainerThreads();

struct PassResult {
  double wall_s = 0.0;
  uint64_t steps = 0;
  uint64_t samples = 0;
  double loss_sum = 0.0;
  std::vector<double> step_us;
  /// NowNs at the end of each step's boundary work, and at the start.
  std::vector<int64_t> step_end_ns;
  int64_t start_ns = 0;
  /// Step-boundary stamps (NowNs before AtStepBoundary), index = step.
  std::vector<int64_t> boundary_ns;
  /// Trainer pause of the boundaries that copied state (traced runs).
  std::vector<std::pair<uint64_t, double>> pauses_us;
};

/// One chronological pass over the training days. With a manager, calls
/// AtStepBoundary after every step (the online trainer).
PassResult TrainPass(cafe::RecModel* model,
                     const cafe::SyntheticCtrDataset& data,
                     cafe::SnapshotManager* manager = nullptr);

struct Quality {
  double auc = 0.0;
  double logloss = 0.0;
  /// Normalized entropy: log-loss over the entropy of the test day's
  /// click rate, which takes the seed's base rate out of the log-loss.
  double ne = 0.0;
};
Quality Evaluate(cafe::RecModel* model, const cafe::SyntheticCtrDataset& data);

/// Training throughput: the median over kRateWindows equal slices of the
/// pass of samples per wall second (boundary work included), so a stall
/// of the host moves one slice rather than the figure.
constexpr size_t kRateWindows = 10;
double WindowedRate(const PassResult& pass);

/// Reports the pass, quality and set-up metrics both training workloads
/// share, and the exact values the runner cross-checks.
void ReportTraining(const PassResult& pass, const Quality& quality,
                    Result* result);

/// Median of the set-up repetitions.
double Median(std::vector<double> v);

double PeakRssMb();

/// Reports the per-layer metrics of the embedding store and CAFE's
/// hot/cold machinery.
void ReportStoreLayers(const TracedStore* traced,
                       const cafe::EmbeddingStore* cafe_store,
                       Result* result);

void RunTrainWorkload(const Args& args, Result* result);
void RunServeWorkload(const Args& args, Result* result);
void RunOnlineWorkload(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
