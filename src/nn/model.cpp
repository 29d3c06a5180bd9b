#include "nn/model.h"

#include <algorithm>
#include <functional>

#include "nn/block.h"
#include "nn/layers.h"
#include "obs/obs.h"
#include "util/hashing.h"

namespace edgestab {

int Model::add(LayerPtr layer) {
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

void Model::set_embedding_tap(int index) {
  ES_CHECK(index >= 0 && index < layer_count());
  embedding_tap_ = index;
}

std::vector<const float*> sample_pointers(const Tensor& batch) {
  ES_CHECK(batch.rank() >= 1);
  const std::size_t n = static_cast<std::size_t>(batch.dim(0));
  const std::size_t row = batch.numel() / n;
  std::vector<const float*> samples(n);
  for (std::size_t i = 0; i < n; ++i) samples[i] = batch.raw() + i * row;
  return samples;
}

Tensor Model::infer(const Tensor& input) const {
  ES_CHECK(input.rank() == 4 || input.rank() == 2);
  return infer(sample_pointers(input),
               std::span<const int>(input.shape()).subspan(1));
}

Tensor Model::infer(std::span<const float* const> samples,
                    std::span<const int> sample_shape) const {
  ES_TRACE_SCOPE("nn", "forward");
  ES_COUNT("nn.inferences", 1);
  ES_CHECK(!layers_.empty() && !samples.empty());
  ES_CHECK(sample_shape.size() == 3 || sample_shape.size() == 1);
  EvalArena& arena = EvalArena::local();
  const EvalArena::Use use(arena);
  ActShape one{static_cast<int>(sample_shape.size()) + 1, {1}};
  std::copy(sample_shape.begin(), sample_shape.end(), one.dims.begin() + 1);

  // Layers that see a spatial [1,C,H,W] activation run one sample at a
  // time, so the arena holds one sample's activations, never the
  // batch's. Every layer is row-independent in every tier: convolutions
  // and pooling work per sample, batch-norm uses running statistics and
  // the int8 tier scales activations per sample, per plane or (Dense)
  // per row. Every sample's flat output is gathered into the rows
  // buffer, and the layers after it run on all rows at once.
  const int n = static_cast<int>(samples.size());
  std::size_t tail = 0;
  ActShape rows_shape;
  float* rows = nullptr;
  for (int i = 0; i < n; ++i) {
    arena.load(samples[static_cast<std::size_t>(i)], one);
    std::size_t l = 0;
    while (l < layers_.size() && arena.shape().rank == 4)
      layers_[l++]->infer(arena);
    const std::size_t row = arena.shape().numel();
    if (i == 0) {
      tail = l;
      rows_shape = arena.shape();
      rows_shape.dims[0] = n;
      rows = arena.rows(rows_shape.numel());
    }
    std::copy_n(arena.x(), row, rows + static_cast<std::size_t>(i) * row);
  }
  arena.load(rows, rows_shape);
  for (std::size_t l = tail; l < layers_.size(); ++l) layers_[l]->infer(arena);

  Tensor out = Tensor::uninit(arena.shape().to_vector());
  std::copy_n(arena.x(), out.numel(), out.raw());
  return out;
}

Tensor Model::forward_train(const Tensor& input) {
  ES_TRACE_SCOPE("nn", "forward");
  ES_COUNT("nn.inferences", 1);
  ES_CHECK(!layers_.empty());
  Tensor x = input;
  for (int i = 0; i < layer_count(); ++i) {
    x = layers_[static_cast<std::size_t>(i)]->forward_train(x);
    if (i == embedding_tap_) embedding_ = x;
  }
  return x;
}

Tensor Model::backward(const Tensor& grad_logits,
                       const Tensor* grad_embedding) {
  ES_TRACE_SCOPE("nn", "backward");
  ES_CHECK(!layers_.empty());
  if (grad_embedding != nullptr)
    ES_CHECK_MSG(embedding_tap_ >= 0,
                 "embedding gradient supplied but no tap set");
  Tensor g = grad_logits;
  if (grad_embedding != nullptr && embedding_tap_ == layer_count() - 1) {
    ES_CHECK(g.same_shape(*grad_embedding));
    g.add_scaled(*grad_embedding, 1.0f);
  }
  for (int i = layer_count() - 1; i >= 0; --i) {
    g = layers_[static_cast<std::size_t>(i)]->backward(g);
    // g is now the gradient at the *output* of layer i-1; inject the
    // extra embedding gradient when that output is the tap.
    if (grad_embedding != nullptr && i - 1 == embedding_tap_) {
      ES_CHECK(g.same_shape(*grad_embedding));
      g.add_scaled(*grad_embedding, 1.0f);
    }
  }
  return g;
}

std::vector<Param*> Model::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) out.push_back(p);
  return out;
}

void Model::zero_grads() {
  for (Param* p : params()) p->zero_grad();
}

void Model::init(Pcg32& rng) {
  for (auto& layer : layers_) layer->init(rng);
}

void Model::set_matmul_mode(MatmulMode mode) {
  for (auto& layer : layers_) layer->set_matmul_mode(mode);
}

namespace {
// Visit batch-norm layers nested inside composite blocks.
void for_each_bn(Layer* layer, const std::function<void(BatchNorm*)>& fn) {
  if (auto* bn = dynamic_cast<BatchNorm*>(layer)) {
    fn(bn);
    return;
  }
  if (auto* block = dynamic_cast<InvertedResidual*>(layer))
    for (Layer* sub : block->sublayers()) for_each_bn(sub, fn);
}
}  // namespace

void Model::set_bn_stats_update(bool update) {
  for (auto& layer : layers_)
    for_each_bn(layer.get(),
                [update](BatchNorm* bn) {
                  bn->set_update_running_stats(update);
                });
}

namespace {
// Collect batch-norm layers nested inside composite blocks.
void collect_bn_state(Layer* layer, const std::string& prefix,
                      std::vector<std::pair<std::string, Tensor*>>& out) {
  if (auto* bn = dynamic_cast<BatchNorm*>(layer)) {
    out.emplace_back(prefix + ".running_mean", &bn->running_mean());
    out.emplace_back(prefix + ".running_var", &bn->running_var());
    return;
  }
  if (auto* block = dynamic_cast<InvertedResidual*>(layer)) {
    int i = 0;
    for (Layer* sub : block->sublayers())
      collect_bn_state(sub, prefix + "." + std::to_string(i++), out);
  }
}
}  // namespace

std::vector<std::pair<std::string, Tensor*>> Model::state_tensors() {
  std::vector<std::pair<std::string, Tensor*>> out;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) out.emplace_back(p->name, &p->value);
  int idx = 0;
  for (auto& layer : layers_)
    collect_bn_state(layer.get(), "layer" + std::to_string(idx++), out);
  return out;
}

Bytes Model::save_state() {
  auto tensors = state_tensors();
  // Fingerprint the topology so load() can reject mismatched models.
  Fingerprint fp;
  for (auto& [name, t] : tensors) {
    fp.add(name);
    for (int d : t->shape()) fp.add(d);
  }
  ByteWriter w;
  w.str("edgestab-model-v1");
  w.u64(fp.value());
  w.u32(static_cast<std::uint32_t>(tensors.size()));
  for (auto& [name, t] : tensors) {
    w.str(name);
    w.f32_array(t->data());
  }
  return w.take();
}

void Model::load_state(std::span<const std::uint8_t> bytes) {
  auto tensors = state_tensors();
  Fingerprint fp;
  for (auto& [name, t] : tensors) {
    fp.add(name);
    for (int d : t->shape()) fp.add(d);
  }
  ByteReader r(bytes);
  ES_CHECK_MSG(r.str() == "edgestab-model-v1", "bad model file magic");
  ES_CHECK_MSG(r.u64() == fp.value(),
               "model topology mismatch (checkpoint from another config)");
  std::uint32_t count = r.u32();
  ES_CHECK(count == tensors.size());
  for (auto& [name, t] : tensors) {
    std::string stored = r.str();
    ES_CHECK_MSG(stored == name, "state order mismatch: " << stored
                                                          << " vs " << name);
    auto values = r.f32_array();
    ES_CHECK(values.size() == t->numel());
    std::copy(values.begin(), values.end(), t->data().begin());
  }
  ES_CHECK_MSG(r.done(), "trailing bytes in model file");
}

}  // namespace edgestab
