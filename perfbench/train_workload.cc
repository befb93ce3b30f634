// train-cr1000: one chronological pass over the training days with CAFE at
// compression ratio 1000 and the sharded backward on min(4, nproc)
// threads, then test-day AUC and log-loss.
#include <cmath>
#include <memory>

#include "common.h"
#include "common/thread_pool.h"

namespace perfbench {

namespace {

/// Interleaved traced/untraced step pairs for the overhead figure.
constexpr size_t kOverheadSteps = 200;

struct TrainStack {
  std::unique_ptr<cafe::SyntheticCtrDataset> data;
  std::unique_ptr<cafe::EmbeddingStore> store;
  std::unique_ptr<TracedStore> traced_store;
  std::unique_ptr<cafe::RecModel> model;  // plain, or a TracedModel
  cafe::RecModel* plain_model = nullptr;  // the DLRM under any decorator
};

// Builds store + model over `data`; with spans, decorated for tracing.
void BuildModel(TrainStack* s, double cr, Spans* spans) {
  s->store = MakeCafe(CafeContext(*s->data, cr));
  cafe::EmbeddingStore* model_store = s->store.get();
  if (spans != nullptr) {
    s->traced_store = std::make_unique<TracedStore>(s->store.get());
    model_store = s->traced_store.get();
  }
  std::unique_ptr<cafe::RecModel> dlrm = MakeDlrm(model_store);
  s->plain_model = dlrm.get();
  s->model = spans != nullptr
                 ? std::make_unique<TracedModel>(std::move(dlrm), spans)
                 : std::move(dlrm);
}

PassResult ShardedPass(TrainStack* s) {
  const uint32_t threads = TrainerThreads();
  cafe::ThreadPool pool(threads);
  s->model->SetBackwardParallelism(&pool, threads);
  PassResult pass = TrainPass(s->model.get(), *s->data);
  s->model->SetBackwardParallelism(nullptr, 1);
  return pass;
}

}  // namespace

void RunTrainWorkload(const Args& args, Result* result) {
  Spans spans;
  Spans* trace = args.trace ? &spans : nullptr;

  // Set-up: input generation plus store and model construction, repeated;
  // the last repetition is the one measured.
  std::unique_ptr<TrainStack> owned;
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    owned.reset();
    const int64_t t0 = NowNs();
    owned = std::make_unique<TrainStack>();
    owned->data = MakeData(args);
    const int64_t t1 = NowNs();
    BuildModel(owned.get(), 1000.0, trace);
    setup_s.push_back((NowNs() - t0) / 1e9);
    generate_s.push_back((t1 - t0) / 1e9);
  }
  result->E2e("setup_s", Median(setup_s), "s");
  result->Layer("data.generate_s", Median(generate_s), "s");
  TrainStack& stack = *owned;

  const PassResult pass = ShardedPass(&stack);
  const Quality quality = Evaluate(stack.plain_model, *stack.data);
  ReportTraining(pass, quality, result);
  result->E2e("lat_p50_us", Quantile(pass.step_us, 0.50), "us");
  result->Named("train.step_p50_us", Quantile(pass.step_us, 0.50), "us");
  result->Named("train.step_p90_us", Quantile(pass.step_us, 0.90), "us");
  result->Named("train.step_p99_us", Quantile(pass.step_us, 0.99), "us");
  result->Named("train.threads", TrainerThreads(), "count");
  result->Check("train.steps_ran", pass.steps > 0 && std::isfinite(pass.loss_sum),
                "the pass trained and its loss is finite");
  if (!args.trace) return;

  // Traced run: per-layer spans, then an undecorated reference pass on
  // fresh state that must reproduce the traced arithmetic bit for bit.
  result->Layer("train.step_us_p50", Quantile(pass.step_us, 0.50), "us");
  result->Layer("train.step_us_p99", Quantile(pass.step_us, 0.99), "us");
  double step_sum_us = 0.0;
  for (double us : pass.step_us) step_sum_us += us;
  const double coverage = step_sum_us / (pass.wall_s * 1e6);
  result->Layer("train.step_sum_over_wall", coverage, "ratio");
  result->Check("trace.steps_cover_wall", std::fabs(1.0 - coverage) <= 0.05,
                "summed train.step_us spans within 5% of the pass wall time");
  const std::vector<double> gather = spans.Get("embed.gather_us");
  const std::vector<double> scatter = spans.Get("embed.scatter_us");
  const std::vector<double> tick = spans.Get("embed.tick_us");
  const std::vector<double> self = spans.Get("nn.train_self_us");
  bool parts_sum = gather.size() == pass.step_us.size();
  for (size_t i = 0; parts_sum && i < gather.size(); ++i) {
    const double parts = gather[i] + scatter[i] + tick[i] + self[i];
    parts_sum = std::fabs(parts - pass.step_us[i]) <= 0.05 * pass.step_us[i];
  }
  result->Check("trace.parts_sum_to_step", parts_sum,
                "embed spans plus nn.train_self_us within 5% of each step");
  for (const char* name : {"embed.gather_us", "embed.scatter_us",
                           "embed.tick_us", "nn.train_self_us"}) {
    result->Layer(std::string(name) + "_p50", spans.P(name, 0.50), "us");
    result->Layer(std::string(name) + "_p99", spans.P(name, 0.99), "us");
  }
  ReportStoreLayers(stack.traced_store.get(), stack.store.get(), result);

  TrainStack reference;
  reference.data = std::move(stack.data);
  BuildModel(&reference, 1000.0, nullptr);
  const PassResult ref_pass = ShardedPass(&reference);
  const Quality ref_quality = Evaluate(reference.model.get(), *reference.data);
  result->Check("trace.equals_untraced",
                ref_pass.loss_sum == pass.loss_sum &&
                    ref_quality.auc == quality.auc &&
                    ref_quality.logloss == quality.logloss,
                "traced loss, AUC and log-loss equal an untraced pass bit "
                "for bit");

  // Tracing overhead: alternate traced and untraced steps on the same
  // test-day batches. Both models hold identical state after the check
  // above and receive identical updates, so each pair does the same work.
  const uint32_t threads = TrainerThreads();
  cafe::ThreadPool pool(threads);
  stack.model->SetBackwardParallelism(&pool, threads);
  reference.model->SetBackwardParallelism(&pool, threads);
  const cafe::SyntheticCtrDataset& data = *reference.data;
  std::vector<double> traced_ns, plain_ns;
  for (size_t i = 0; i < kOverheadSteps; ++i) {
    const size_t start = data.train_size() +
                         (i * kBatchSize) % (data.num_samples() -
                                             data.train_size() - kBatchSize);
    const cafe::Batch batch = data.GetBatch(start, kBatchSize);
    int64_t t0 = NowNs();
    stack.model->TrainStep(batch);
    traced_ns.push_back(static_cast<double>(NowNs() - t0));
    t0 = NowNs();
    reference.model->TrainStep(batch);
    plain_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  stack.model->SetBackwardParallelism(nullptr, 1);
  reference.model->SetBackwardParallelism(nullptr, 1);
  const double traced_med = Median(traced_ns);
  const double plain_med = Median(plain_ns);
  result->Layer("trace.overhead_ns_per_step", traced_med - plain_med, "ns");
  result->Layer("trace.overhead_pct_step",
                100.0 * (traced_med - plain_med) / plain_med, "%");
}

}  // namespace perfbench
