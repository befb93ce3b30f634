#ifndef CAFE_MODELS_WDL_H_
#define CAFE_MODELS_WDL_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "models/model.h"
#include "nn/embedding_bag.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace cafe {

/// Wide & Deep (Cheng et al. 2016), as described in the paper §5.1.1:
/// embeddings (plus raw numerical features) feed a wide network (one FC
/// layer) and a deep network (several FC layers); the two outputs are
/// summed into the final logit.
class WdlModel : public RecModel {
 public:
  static StatusOr<std::unique_ptr<WdlModel>> Create(const ModelConfig& config,
                                                    EmbeddingStore* store);

  double TrainStep(const Batch& batch) override;
  void Predict(const Batch& batch, std::vector<float>* logits) override;
  std::string Name() const override { return "wdl"; }
  EmbeddingStore* store() override { return store_; }
  size_t DenseParameters() const override;
  void CollectDenseParams(std::vector<Param>* out) override;
  Optimizer* optimizer() override { return optimizer_.get(); }

 private:
  WdlModel(const ModelConfig& config, EmbeddingStore* store);

  size_t InputSize() const {
    return config_.num_fields * config_.emb_dim + config_.num_numerical;
  }

  /// Builds the concatenated [embeddings, numerical] input tensor.
  void BuildInput(const Batch& batch);
  void Forward(const Batch& batch, Tensor* logits);

  ModelConfig config_;
  EmbeddingStore* store_;
  EmbeddingLayerGroup emb_layer_;  // batched lookup/update over store_
  Rng rng_;
  std::unique_ptr<Linear> wide_;  // InputSize() -> 1
  std::unique_ptr<Mlp> deep_;     // InputSize() -> hidden -> 1
  std::unique_ptr<Optimizer> optimizer_;

  Tensor input_;  // B x InputSize()
  Tensor wide_out_, deep_out_, logits_, grad_logits_;
  Tensor grad_wide_in_, grad_deep_in_, grad_emb_;
};

}  // namespace cafe

#endif  // CAFE_MODELS_WDL_H_
