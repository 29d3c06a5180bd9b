// Training loops: standard classifier training and the paper's stability
// fine-tuning (§9.1).
//
// Stability training pairs every clean sample x with a companion x'
// supplied by a CompanionFn — Gaussian noise, photometric distortion, the
// matched photo from another phone ("two images"), or a per-class
// subsample of another phone's photos. The objective is
//   L = L0(x) + α · Ls(x, x')
// with Ls either KL between predictive distributions or the Euclidean
// distance between embeddings.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/model.h"
#include "util/rng.h"

namespace edgestab {

/// A dataset in tensor form: images [N,3,H,W] (normalized to [-1,1]),
/// integer labels.
struct TensorDataset {
  Tensor images;
  std::vector<int> labels;

  int size() const { return images.empty() ? 0 : images.dim(0); }
  /// Copy sample i as a [1,3,H,W] tensor.
  Tensor sample(int i) const;
};

struct TrainConfig {
  int epochs = 5;
  int batch_size = 32;
  float lr = 1e-3f;
  float lr_decay = 1.0f;       ///< multiplicative per-epoch decay
  float weight_decay = 1e-4f;
  std::uint64_t seed = 1;
  bool use_adam = true;        ///< Adam, else SGD+momentum
  float momentum = 0.9f;
  bool verbose = false;
};

struct EpochStats {
  double loss = 0.0;            ///< total objective
  double stability_loss = 0.0;  ///< Ls component (0 when not used)
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
  double seconds = 0.0;
};

struct TrainStats {
  std::vector<EpochStats> epochs;
  double final_val_accuracy = 0.0;
};

/// Stability-loss form (paper Table 6 columns).
enum class StabilityLoss {
  kNone,       ///< plain fine-tuning ("No noise" baseline rows)
  kKl,         ///< relative entropy between predictions
  kEmbedding,  ///< Euclidean distance between embeddings
};

/// Produces the companion sample x' for training index `idx` as a
/// [1,3,H,W] tensor in the model's input normalization.
using CompanionFn =
    std::function<Tensor(const Tensor& clean_sample, int idx, Pcg32& rng)>;

/// Standard supervised training with cross entropy.
TrainStats train_classifier(Model& model, const TensorDataset& train,
                            const TensorDataset* val,
                            const TrainConfig& config);

/// Stability fine-tuning. With loss == kNone the companion function is
/// ignored and this degenerates to train_classifier.
TrainStats train_stability(Model& model, const TensorDataset& train,
                           const TensorDataset* val, StabilityLoss loss,
                           float alpha, const CompanionFn& companion,
                           const TrainConfig& config);

/// Batched inference: raw logits [N, classes] (eval mode). The drift
/// auditor compares these across environments before softmax flattens
/// the scale.
Tensor predict_logits(const Model& model, const Tensor& images,
                      int batch_size = 64);

/// The same over samples that are not stacked into one tensor: sample i,
/// of shape `sample_shape` ([C,H,W]), is read from samples[i].
Tensor predict_logits(const Model& model,
                      std::span<const float* const> samples,
                      std::span<const int> sample_shape,
                      int batch_size = 64);

/// Batched inference: softmax probabilities [N, classes] (eval mode).
Tensor predict_probs(const Model& model, const Tensor& images,
                     int batch_size = 64);

/// Convert probabilities to top-1 labels.
std::vector<int> predict_labels(const Model& model, const Tensor& images,
                                int batch_size = 64);

}  // namespace edgestab
