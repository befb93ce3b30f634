#ifndef CAFE_TRAIN_TRAINER_H_
#define CAFE_TRAIN_TRAINER_H_

#include <cstddef>
#include <vector>

#include "data/synthetic.h"
#include "models/model.h"

namespace cafe {

struct TrainOptions {
  size_t batch_size = 256;
  /// Number of intermediate (iteration, loss, AUC) curve points to record
  /// during the pass; 0 records only the final metrics. Used by the
  /// metrics-vs-iterations figures.
  size_t curve_points = 0;
  /// Cap on test samples used per AUC evaluation (the full last day can be
  /// large; a prefix preserves ordering-free AUC estimates).
  size_t max_eval_samples = 20000;
  /// Track a per-field HyperLogLog over the training id stream and report
  /// distinct-feature estimates in TrainResult (serving capacity planning;
  /// printed alongside serving stats). ~2^precision bytes and one O(1)
  /// insert per (sample, field) — noise next to the forward/backward pass.
  bool track_field_cardinality = true;
  uint32_t cardinality_precision = 12;
};

struct MetricPoint {
  size_t iteration = 0;
  size_t samples_seen = 0;
  /// Running average train loss up to this point (paper's online metric).
  double avg_train_loss = 0.0;
  double test_auc = 0.5;
};

struct TrainResult {
  /// Average training loss over the full pass (paper's online metric).
  double avg_train_loss = 0.0;
  /// AUC on the held-out last day (paper's offline metric).
  double final_test_auc = 0.5;
  /// Log-loss on the held-out last day.
  double final_test_logloss = 0.0;
  std::vector<MetricPoint> curve;
  double train_seconds = 0.0;
  /// Training samples per second (includes embedding + dense compute).
  double train_throughput = 0.0;
  /// HyperLogLog estimate of distinct ids seen per field during training
  /// (empty when track_field_cardinality is off).
  std::vector<double> field_distinct_estimates;
};

/// Offline metrics computed from one prediction sweep.
struct EvalMetrics {
  double auc = 0.5;
  double logloss = 0.0;
};

/// AUC and log-loss of `model` on samples [begin, end) of `data` in a
/// single batched prediction pass (no parameter updates).
EvalMetrics EvaluateMetrics(RecModel* model, const SyntheticCtrDataset& data,
                            size_t begin, size_t end,
                            size_t batch_size = 1024);

/// AUC of `model` on samples [begin, end) of `data` (no parameter updates).
double EvaluateAuc(RecModel* model, const SyntheticCtrDataset& data,
                   size_t begin, size_t end, size_t batch_size = 1024);

/// Log-loss of `model` on samples [begin, end).
double EvaluateLogLoss(RecModel* model, const SyntheticCtrDataset& data,
                       size_t begin, size_t end, size_t batch_size = 1024);

/// One chronological pass over the training split (all days but the last),
/// then evaluation on the last day — the paper's protocol (§5.1.4): online
/// metric = average train loss, offline metric = last-day AUC.
TrainResult TrainOnePass(RecModel* model, const SyntheticCtrDataset& data,
                         const TrainOptions& options);

}  // namespace cafe

#endif  // CAFE_TRAIN_TRAINER_H_
