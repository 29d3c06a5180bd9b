// Layer abstraction for the NN library.
//
// The library uses explicit layer-graph backprop rather than a general
// autograd tape: each layer's training forward caches its context for an
// exact backward, while the const eval forward (`infer`) caches nothing
// and works in the lane's activation arena (nn/arena.h). Composite
// layers (inverted residual blocks) own their sublayers and handle skip
// connections internally.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/arena.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace edgestab {

/// A trainable parameter: value + gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string n, std::vector<int> shape)
      : name(std::move(n)), value(shape), grad(std::move(shape)) {}

  void zero_grad() { grad.zero(); }
};

/// Base layer. forward_train(x) caches whatever backward needs;
/// backward(dy) must follow the matching training forward.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Eval-mode forward: reads the arena's current activation and leaves
  /// this layer's output as the current activation, written into another
  /// arena buffer or in place. Writes no layer state, so concurrent calls
  /// on one instance (each lane with its own arena) are safe.
  virtual void infer(EvalArena& arena) const = 0;

  /// Training-mode output for a batch (batch-norm batch statistics).
  virtual Tensor forward_train(const Tensor& input) = 0;

  /// Propagate gradient; accumulates into parameter grads and returns
  /// gradient w.r.t. the layer input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// All trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Layer type tag for debugging / serialization sanity checks.
  virtual std::string type() const = 0;

  /// Initialize weights (He/Glorot as appropriate). Stateless layers
  /// ignore this.
  virtual void init(Pcg32&) {}

  /// Propagate the matmul accumulation mode (compute-backend modeling).
  virtual void set_matmul_mode(MatmulMode mode) { mode_ = mode; }

 protected:
  MatmulMode mode_ = MatmulMode::kStandard;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace edgestab
