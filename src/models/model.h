#ifndef CAFE_MODELS_MODEL_H_
#define CAFE_MODELS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "data/batch.h"
#include "embed/embedding_store.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace cafe {

/// Hyperparameters shared by the three recommendation models. The embedding
/// store is injected (not owned), so any compressor can back any model —
/// CAFE's "plug-in embedding layer" design (§4).
struct ModelConfig {
  size_t num_fields = 0;
  uint32_t emb_dim = 16;
  uint32_t num_numerical = 0;
  /// Bottom MLP hidden sizes (numerical tower; DLRM only); the final layer
  /// always projects to emb_dim.
  std::vector<size_t> bottom_hidden = {16};
  /// Top / deep MLP hidden sizes; the final layer always projects to 1.
  std::vector<size_t> top_hidden = {64, 32};
  /// Number of cross layers (DCN only).
  size_t num_cross_layers = 2;
  /// SGD learning rate for sparse embedding updates.
  float emb_lr = 0.05f;
  /// Learning rate for the dense parameters.
  float dense_lr = 0.02f;
  /// Dense optimizer: "sgd" | "adagrad" | "adam".
  std::string dense_optimizer = "adagrad";
  uint64_t seed = 123;
};

/// Abstract recommendation model over an EmbeddingStore. TrainStep runs
/// forward + BCE loss + backward, updates dense parameters through the
/// model's optimizer and embedding rows through the store, then calls
/// store->Tick(). Predict computes logits only (no state updates besides
/// store lookup statistics).
class RecModel {
 public:
  virtual ~RecModel() = default;

  RecModel() = default;
  RecModel(const RecModel&) = delete;
  RecModel& operator=(const RecModel&) = delete;

  /// One optimization step on `batch`; returns the mean BCE loss.
  virtual double TrainStep(const Batch& batch) = 0;

  /// Fills `logits` with one raw logit per sample.
  virtual void Predict(const Batch& batch, std::vector<float>* logits) = 0;

  virtual std::string Name() const = 0;

  virtual EmbeddingStore* store() = 0;

  /// Learnable scalars outside the embedding table (for Table 2-style
  /// accounting; negligible next to embeddings, as the paper notes).
  virtual size_t DenseParameters() const = 0;

  /// Appends views over every dense learnable parameter block in a stable
  /// order (the same order the blocks register with the optimizer), so two
  /// models built from the same config expose structurally identical lists.
  /// Checkpointing walks this to save/restore dense weights (io/checkpoint).
  virtual void CollectDenseParams(std::vector<Param>* out) = 0;

  /// The dense-parameter optimizer, so checkpoints can carry its adaptive
  /// state (Adagrad/Adam accumulators) and training resume is bit-identical.
  /// May be null for models that do no dense training.
  virtual Optimizer* optimizer() { return nullptr; }

  /// No-op; kept only because perfbench/ compiles against it.
  virtual void SetBackwardParallelism(ThreadPool* pool, uint32_t shards) {
    (void)pool;
    (void)shards;
  }
};

namespace model_internal {

/// Gathers embeddings for every (sample, field) of `batch` into `out`
/// (batch_size x num_fields*dim), sample-major. Convenience wrapper over
/// the batched store API for tools and tests; models keep a persistent
/// EmbeddingLayerGroup (nn/embedding_bag.h) instead so staging buffers are
/// reused across steps.
void LookupBatch(EmbeddingStore* store, const Batch& batch, Tensor* out);

/// Routes per-(sample, field) embedding gradients in `grad`
/// (batch_size x num_fields*dim) back to the store with SGD rate `lr`,
/// clipped like the training path. Convenience wrapper, see LookupBatch.
void ApplyBatchGradients(EmbeddingStore* store, const Batch& batch,
                         const Tensor& grad, float lr);

}  // namespace model_internal

}  // namespace cafe

#endif  // CAFE_MODELS_MODEL_H_
