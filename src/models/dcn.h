#ifndef CAFE_MODELS_DCN_H_
#define CAFE_MODELS_DCN_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "models/model.h"
#include "nn/embedding_bag.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace cafe {

/// Deep & Cross Network (Wang et al. 2017), paper §5.1.1: cross layers
/// multiply the concatenated input with its projections to produce
/// element-level cross terms:
///   x_{l+1} = x_0 * (x_l . w_l) + b_l + x_l
/// run in parallel with a deep MLP over the same input; the concatenation
/// [x_L, deep_out] passes a final linear layer to the logit.
class DcnModel : public RecModel {
 public:
  static StatusOr<std::unique_ptr<DcnModel>> Create(const ModelConfig& config,
                                                    EmbeddingStore* store);

  double TrainStep(const Batch& batch) override;
  void Predict(const Batch& batch, std::vector<float>* logits) override;
  std::string Name() const override { return "dcn"; }
  EmbeddingStore* store() override { return store_; }
  size_t DenseParameters() const override;
  void CollectDenseParams(std::vector<Param>* out) override;
  Optimizer* optimizer() override { return optimizer_.get(); }

 private:
  DcnModel(const ModelConfig& config, EmbeddingStore* store);

  size_t InputSize() const {
    return config_.num_fields * config_.emb_dim + config_.num_numerical;
  }
  size_t DeepOutSize() const {
    return config_.top_hidden.empty() ? InputSize()
                                      : config_.top_hidden.back();
  }

  void BuildInput(const Batch& batch);
  void Forward(const Batch& batch, Tensor* logits);

  ModelConfig config_;
  EmbeddingStore* store_;
  EmbeddingLayerGroup emb_layer_;  // batched lookup/update over store_
  Rng rng_;

  // Cross-network parameters: per layer a weight vector w (D) and bias
  // b (D), with gradient accumulators, registered with the optimizer.
  std::vector<std::vector<float>> cross_w_, cross_b_;
  std::vector<std::vector<float>> cross_w_grad_, cross_b_grad_;

  std::unique_ptr<Mlp> deep_;      // InputSize() -> hidden (no final 1)
  std::unique_ptr<Linear> final_;  // [x_L, deep_out] -> 1
  std::unique_ptr<Optimizer> optimizer_;

  Tensor input_;                 // x_0: B x D
  std::vector<Tensor> cross_x_;  // x_0..x_L (x_0 aliases input_)
  Tensor deep_out_;              // B x DeepOutSize()
  Tensor combined_;              // B x (D + DeepOutSize())
  Tensor logits_, grad_logits_, grad_combined_, grad_deep_out_;
  Tensor grad_deep_in_, grad_x0_, grad_emb_;
};

}  // namespace cafe

#endif  // CAFE_MODELS_DCN_H_
