// Concrete layers: convolutions, dense, batch-norm, activations, pooling.
#pragma once

#include <limits>

#include "nn/layer.h"

namespace edgestab {

/// Standard 2-D convolution via im2col + matmul. Weights are stored as
/// [out_c, in_c*K*K] so forward is a single GEMM per sample.
class Conv2D : public Layer {
 public:
  Conv2D(std::string name, int in_c, int out_c, int kernel, int stride,
         int pad, bool use_bias);

  void infer(EvalArena& arena) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string type() const override { return "conv2d"; }
  void init(Pcg32& rng) override;

 private:
  /// One sample's float GEMM of the weights with its im2col matrix
  /// `cols` ([in_c*K*K, out_h*out_w]) into `out`, plus the bias.
  void gemm_sample(const float* cols, const ConvGeom& g, float* out) const;

  /// Quantized inference path (BackendKind::kInt8, eval mode only):
  /// per-row weight scales, per-sample activation scale over the im2col
  /// buffer, saturating int32 accumulate, deterministic requantization.
  void infer_int8(const float* input, int n_batch, const ConvGeom& g,
                  float* out, EvalArena& arena) const;

  ConvGeom geom_;  // in_h/in_w: the last training forward's, for backward
  bool use_bias_;
  Param weight_;
  Param bias_;
  // Training-forward cache.
  Tensor input_;
  std::vector<Tensor> cols_;  // per-sample im2col buffers
};

/// Depthwise 3x3 (or KxK) convolution, one filter per channel.
class DepthwiseConv2D : public Layer {
 public:
  DepthwiseConv2D(std::string name, int channels, int kernel, int stride,
                  int pad, bool use_bias);

  void infer(EvalArena& arena) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string type() const override { return "depthwise"; }
  void init(Pcg32& rng) override;

 private:
  /// Quantized inference path: per-channel weight scales, per-plane
  /// activation scales.
  void infer_int8(const float* input, int n_batch, const ConvGeom& g,
                  float* out, EvalArena& arena) const;

  ConvGeom geom_;  // in_h/in_w: the last training forward's, for backward
  bool use_bias_;
  Param weight_;  // [C, K, K]
  Param bias_;    // [C]
  Tensor input_;
};

/// Fully connected layer on [N, in] inputs.
class Dense : public Layer {
 public:
  Dense(std::string name, int in_dim, int out_dim, bool use_bias = true);

  void infer(EvalArena& arena) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string type() const override { return "dense"; }
  void init(Pcg32& rng) override;

 private:
  /// Float GEMM of `n` input rows with the weights into `out`, plus bias.
  void affine(const float* input, int n, float* out) const;

  /// Quantized inference path: per-column (per-output-unit) weight
  /// scales, one activation scale over all `n` rows — so Dense, unlike
  /// the layers before it, is not row-independent in this tier.
  void infer_int8(const float* input, int n, float* out,
                  EvalArena& arena) const;

  int in_dim_, out_dim_;
  bool use_bias_;
  Param weight_;  // [in, out]
  Param bias_;    // [out]
  Tensor input_;
};

/// Batch normalization over channel dimension of [N,C,H,W] (or feature
/// dimension of [N,D]). Tracks running statistics for inference.
class BatchNorm : public Layer {
 public:
  BatchNorm(std::string name, int channels, float momentum = 0.9f,
            float eps = 1e-5f);

  /// In place on the producer's buffer.
  void infer(EvalArena& arena) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string type() const override { return "batchnorm"; }

  /// Running statistics are state (not gradients) but must serialize.
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

  /// When false, training-mode forwards still normalize with batch
  /// statistics but do not update the running averages — used for the
  /// companion branch of stability training, whose heavily-noised inputs
  /// must not pollute inference statistics.
  void set_update_running_stats(bool update) { update_stats_ = update; }

 private:
  int channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Training-forward cache.
  Tensor input_, normalized_;
  std::vector<float> batch_mean_, batch_inv_std_;
  bool update_stats_ = true;
};

/// ReLU clipped at `cap` (ReLU6 with cap = 6; plain ReLU with cap = inf).
class ReLU : public Layer {
 public:
  explicit ReLU(float cap = std::numeric_limits<float>::infinity())
      : cap_(cap) {}

  /// In place on the producer's buffer.
  void infer(EvalArena& arena) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type() const override { return cap_ < 1e9f ? "relu6" : "relu"; }

 private:
  void apply(const float* src, std::size_t n, float* dst) const;

  float cap_;
  Tensor input_;
};

/// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool : public Layer {
 public:
  void infer(EvalArena& arena) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type() const override { return "gap"; }

 private:
  std::vector<int> in_shape_;
};

}  // namespace edgestab
