// Sequential model container with an embedding tap.
//
// The model chains layers; the "embedding" is the output of a designated
// layer (the input to the last fully-connected layer in the paper's
// terminology, §9.1) and is captured on every training forward so
// stability losses can read it and inject gradients at that point on
// backward.
#pragma once

#include <span>

#include "nn/layer.h"
#include "util/bytes.h"

namespace edgestab {

/// Where the N samples of a batch [N,...] start: one pointer per row, for
/// the sample-list forms of Model::infer and predict_logits.
std::vector<const float*> sample_pointers(const Tensor& batch);

class Model {
 public:
  Model() = default;
  // A model owns its layers through unique pointers: move-only. Inference
  // never needs a copy — infer() is const, so lanes share one model.
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Append a layer; returns its index.
  int add(LayerPtr layer);

  /// Mark the output of layer `index` as the embedding.
  void set_embedding_tap(int index);

  /// Eval forward of a batch [N,3,H,W] (or [N,D]) to logits [N,classes].
  /// Writes no model state, so concurrent calls on one model are safe.
  Tensor infer(const Tensor& input) const;

  /// The same for N = samples.size() inputs that are not stacked into
  /// one tensor: sample i, of shape `sample_shape` ([C,H,W] or [D]), is
  /// read from samples[i]. Activations live in the calling lane's arena
  /// (nn/arena.h); the returned logits are the only allocation once the
  /// arena has grown to the model's geometry.
  Tensor infer(std::span<const float* const> samples,
               std::span<const int> sample_shape) const;

  /// Training forward of a batch [N,3,H,W] to logits [N,classes].
  Tensor forward_train(const Tensor& input);

  /// Embedding captured by the last forward_train (empty if no tap set).
  const Tensor& embedding() const { return embedding_; }

  /// Backward from logit gradients; optionally inject an additional
  /// gradient at the embedding tap (for embedding-distance stability
  /// loss). Returns gradient w.r.t. the input batch.
  Tensor backward(const Tensor& grad_logits,
                  const Tensor* grad_embedding = nullptr);

  std::vector<Param*> params();
  void zero_grads();

  void init(Pcg32& rng);
  void set_matmul_mode(MatmulMode mode);

  /// Enable/disable batch-norm running-statistic updates on
  /// training-mode forwards (see BatchNorm::set_update_running_stats).
  void set_bn_stats_update(bool update);

  int layer_count() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_[static_cast<std::size_t>(i)]; }

  /// Serialize weights + batch-norm running statistics. The architecture
  /// itself is not serialized; load() must be called on a model built
  /// with the same topology (checked via a fingerprint of param shapes).
  Bytes save_state();
  void load_state(std::span<const std::uint8_t> bytes);

 private:
  /// All tensors that constitute model state (params + BN stats).
  std::vector<std::pair<std::string, Tensor*>> state_tensors();

  std::vector<LayerPtr> layers_;
  int embedding_tap_ = -1;
  Tensor embedding_;
};

}  // namespace edgestab
