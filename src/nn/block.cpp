#include "nn/block.h"

namespace edgestab {

InvertedResidual::InvertedResidual(std::string name, int in_c, int out_c,
                                   int expand_ratio, int stride)
    : residual_(stride == 1 && in_c == out_c) {
  ES_CHECK(expand_ratio >= 1);
  ES_CHECK(stride == 1 || stride == 2);
  int hidden = in_c * expand_ratio;
  if (expand_ratio != 1) {
    seq_.push_back(std::make_unique<Conv2D>(name + ".expand", in_c, hidden,
                                            1, 1, 0, /*use_bias=*/false));
    seq_.push_back(std::make_unique<BatchNorm>(name + ".expand_bn", hidden));
    seq_.push_back(std::make_unique<ReLU>(6.0f));
  }
  seq_.push_back(std::make_unique<DepthwiseConv2D>(name + ".dw", hidden, 3,
                                                   stride, 1,
                                                   /*use_bias=*/false));
  seq_.push_back(std::make_unique<BatchNorm>(name + ".dw_bn", hidden));
  seq_.push_back(std::make_unique<ReLU>(6.0f));
  seq_.push_back(std::make_unique<Conv2D>(name + ".project", hidden, out_c,
                                          1, 1, 0, /*use_bias=*/false));
  seq_.push_back(std::make_unique<BatchNorm>(name + ".project_bn", out_c));
}

void InvertedResidual::infer(EvalArena& arena) const {
  if (residual_) arena.pin_residual();
  for (const auto& layer : seq_) layer->infer(arena);
  if (residual_) arena.add_residual();
}

Tensor InvertedResidual::forward_train(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : seq_) x = layer->forward_train(x);
  if (residual_) x.add_scaled(input, 1.0f);
  return x;
}

Tensor InvertedResidual::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = seq_.rbegin(); it != seq_.rend(); ++it)
    g = (*it)->backward(g);
  if (residual_) g.add_scaled(grad_output, 1.0f);
  return g;
}

std::vector<Param*> InvertedResidual::params() {
  std::vector<Param*> out;
  for (auto& layer : seq_)
    for (Param* p : layer->params()) out.push_back(p);
  return out;
}

void InvertedResidual::init(Pcg32& rng) {
  for (auto& layer : seq_) layer->init(rng);
}

void InvertedResidual::set_matmul_mode(MatmulMode mode) {
  Layer::set_matmul_mode(mode);
  for (auto& layer : seq_) layer->set_matmul_mode(mode);
}

std::vector<Layer*> InvertedResidual::sublayers() {
  std::vector<Layer*> out;
  out.reserve(seq_.size());
  for (auto& layer : seq_) out.push_back(layer.get());
  return out;
}

}  // namespace edgestab
