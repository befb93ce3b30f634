#include "train/trainer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sketch/hyperloglog.h"
#include "train/metrics.h"

namespace cafe {
namespace {

void CollectPredictions(RecModel* model, const SyntheticCtrDataset& data,
                        size_t begin, size_t end, size_t batch_size,
                        std::vector<float>* logits,
                        std::vector<float>* labels) {
  logits->clear();
  labels->clear();
  logits->reserve(end - begin);
  labels->reserve(end - begin);
  std::vector<float> batch_logits;
  for (size_t start = begin; start < end; start += batch_size) {
    const size_t size = std::min(batch_size, end - start);
    const Batch batch = data.GetBatch(start, size);
    model->Predict(batch, &batch_logits);
    logits->insert(logits->end(), batch_logits.begin(), batch_logits.end());
    labels->insert(labels->end(), batch.labels, batch.labels + size);
  }
}

}  // namespace

EvalMetrics EvaluateMetrics(RecModel* model, const SyntheticCtrDataset& data,
                            size_t begin, size_t end, size_t batch_size) {
  std::vector<float> logits, labels;
  CollectPredictions(model, data, begin, end, batch_size, &logits, &labels);
  EvalMetrics metrics;
  metrics.auc = ComputeAuc(logits, labels);
  metrics.logloss = ComputeLogLoss(logits, labels);
  return metrics;
}

double EvaluateAuc(RecModel* model, const SyntheticCtrDataset& data,
                   size_t begin, size_t end, size_t batch_size) {
  std::vector<float> logits, labels;
  CollectPredictions(model, data, begin, end, batch_size, &logits, &labels);
  return ComputeAuc(logits, labels);
}

double EvaluateLogLoss(RecModel* model, const SyntheticCtrDataset& data,
                       size_t begin, size_t end, size_t batch_size) {
  std::vector<float> logits, labels;
  CollectPredictions(model, data, begin, end, batch_size, &logits, &labels);
  return ComputeLogLoss(logits, labels);
}

TrainResult TrainOnePass(RecModel* model, const SyntheticCtrDataset& data,
                         const TrainOptions& options) {
  CAFE_CHECK(options.batch_size > 0);
  TrainResult result;
  const size_t train_end = data.train_size();
  const size_t test_begin = train_end;
  const size_t test_end =
      std::min(data.num_samples(), test_begin + options.max_eval_samples);

  const size_t total_iters =
      (train_end + options.batch_size - 1) / options.batch_size;
  const size_t curve_every =
      options.curve_points > 0
          ? std::max<size_t>(1, total_iters / options.curve_points)
          : 0;

  // One HyperLogLog per field over the training id stream: the live
  // distinct-feature census serving capacity planning reads.
  std::vector<HyperLogLog> field_hll;
  if (options.track_field_cardinality) {
    field_hll.reserve(data.num_fields());
    for (size_t f = 0; f < data.num_fields(); ++f) {
      field_hll.emplace_back(options.cardinality_precision);
    }
  }

  // Trainer metrics (train.*). Counters advance per step; the loss EMA and
  // the windowed steps/s land in gauges a live scrape can read mid-pass.
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
  constexpr size_t kRateWindowSteps = 64;
  double loss_ema = 0.0;
  uint64_t rate_window_start_us = obs::NowMicros();

  WallTimer timer;
  double eval_seconds = 0.0;
  double loss_sum = 0.0;
  size_t iter = 0;
  size_t samples_seen = 0;
  for (size_t start = 0; start < train_end; start += options.batch_size) {
    const size_t size = std::min(options.batch_size, train_end - start);
    const Batch batch = data.GetBatch(start, size);
    if (options.track_field_cardinality) {
      for (size_t b = 0; b < size; ++b) {
        const uint32_t* cats = batch.sample_categorical(b);
        for (size_t f = 0; f < batch.num_fields; ++f) {
          field_hll[f].Insert(cats[f]);
        }
      }
    }
    double step_loss;
    {
      obs::ScopedTimer step_timer("train.step", obs_step_us);
      step_loss = model->TrainStep(batch);
    }
    loss_sum += step_loss * static_cast<double>(size);
    loss_ema = iter == 0 ? step_loss
                         : (1.0 - kLossEmaAlpha) * loss_ema +
                               kLossEmaAlpha * step_loss;
    obs_loss_ema->Set(loss_ema);
    obs_steps->Add(1);
    obs_examples->Add(size);
    samples_seen += size;
    ++iter;
    if (iter % kRateWindowSteps == 0) {
      const uint64_t now_us = obs::NowMicros();
      if (now_us > rate_window_start_us) {
        obs_steps_per_sec->Set(static_cast<double>(kRateWindowSteps) * 1e6 /
                               static_cast<double>(now_us -
                                                   rate_window_start_us));
      }
      rate_window_start_us = now_us;
    }
    if (curve_every > 0 &&
        (iter % curve_every == 0 || samples_seen == train_end)) {
      WallTimer eval_timer;
      MetricPoint point;
      point.iteration = iter;
      point.samples_seen = samples_seen;
      point.avg_train_loss = loss_sum / static_cast<double>(samples_seen);
      point.test_auc = EvaluateAuc(model, data, test_begin, test_end);
      result.curve.push_back(point);
      eval_seconds += eval_timer.ElapsedSeconds();
    }
  }
  result.train_seconds = timer.ElapsedSeconds() - eval_seconds;
  result.train_throughput =
      result.train_seconds > 0.0
          ? static_cast<double>(samples_seen) / result.train_seconds
          : 0.0;
  result.avg_train_loss =
      samples_seen > 0 ? loss_sum / static_cast<double>(samples_seen) : 0.0;
  // One batched prediction sweep feeds both offline metrics.
  const EvalMetrics final_metrics =
      EvaluateMetrics(model, data, test_begin, test_end);
  result.final_test_auc = final_metrics.auc;
  result.final_test_logloss = final_metrics.logloss;
  result.field_distinct_estimates.reserve(field_hll.size());
  for (const HyperLogLog& hll : field_hll) {
    result.field_distinct_estimates.push_back(hll.Estimate());
  }
  return result;
}

}  // namespace cafe
