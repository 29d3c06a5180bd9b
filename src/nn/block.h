// MobileNetV2 inverted-residual block (Sandler et al. 2018): 1x1 expand →
// 3x3 depthwise → 1x1 linear projection, with a skip connection when the
// geometry allows.
#pragma once

#include "nn/layers.h"

namespace edgestab {

class InvertedResidual : public Layer {
 public:
  /// expand_ratio 1 skips the expansion convolution (as in the paper's
  /// first block).
  InvertedResidual(std::string name, int in_c, int out_c, int expand_ratio,
                   int stride);

  void infer(EvalArena& arena) const override;
  Tensor forward_train(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string type() const override { return "inverted_residual"; }
  void init(Pcg32& rng) override;
  void set_matmul_mode(MatmulMode mode) override;

  /// Sub-layers in forward order (exposed for serialization of
  /// batch-norm running statistics).
  std::vector<Layer*> sublayers();

 private:
  bool residual_ = false;
  std::vector<LayerPtr> seq_;
};

}  // namespace edgestab
