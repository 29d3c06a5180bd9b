// Numeric kernels for the NN library.
//
// All kernels are deterministic. `MatmulMode` selects the accumulation
// strategy: device compute backends use it to model SoC-level floating
// point differences (FMA contraction / accumulation order), per §7 of the
// paper.
#pragma once

#include "tensor/tensor.h"

namespace edgestab {

/// Floating-point accumulation strategy (models per-SoC math differences).
enum class MatmulMode {
  kStandard,   ///< row-major ikj accumulation
  kBlocked,    ///< 4-way split accumulators, combined pairwise
};

/// Raw-pointer GEMM kernels (used per-sample by conv layers; the Tensor
/// overloads below wrap them with shape checks). C must hold m*n floats;
/// when `accumulate` is false it is overwritten.
void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate = false, MatmulMode mode = MatmulMode::kStandard);
/// C[m,n] (+)= A^T[k,m] * B[k,n].
void gemm_at_b(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate = false);
/// C[m,n] (+)= A[m,k] * B^T[n,k].
void gemm_a_bt(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate = false);

/// C[m,n] = A[m,k] * B[k,n] (+ C if accumulate).
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false, MatmulMode mode = MatmulMode::kStandard);

/// C[m,n] = A^T[k,m] * B[k,n]. (A stored as [k,m].)
void matmul_at_b(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate = false);

/// C[m,n] = A[m,k] * B^T[n,k]. (B stored as [n,k].)
void matmul_a_bt(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate = false);

/// Convolution geometry (square kernels, symmetric padding).
struct ConvGeom {
  int in_c, in_h, in_w;
  int out_c;
  int kernel, stride, pad;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// im2col: expand input patches into columns.
/// input [N,C,H,W] -> cols [N][C*K*K, outH*outW] flattened per sample.
/// `cols` must be sized [C*K*K, outH*outW]; operates on one sample.
void im2col(const float* input, const ConvGeom& g, float* cols);

/// col2im: scatter-add columns back to an input-shaped gradient buffer
/// (which must be pre-zeroed); one sample.
void col2im(const float* cols, const ConvGeom& g, float* input_grad);

/// Depthwise convolution forward, one multiplier per channel.
/// input [N,C,H,W], weights [C,K,K], bias [C] (optional, may be null).
void depthwise_conv_forward(const Tensor& input, const Tensor& weights,
                            const float* bias, const ConvGeom& g,
                            Tensor& output);
/// Raw-pointer form of the above: `n_batch` samples of geometry `g`,
/// output [n_batch, C, out_h, out_w].
void depthwise_conv_forward(const float* input, int n_batch,
                            const float* weights, const float* bias,
                            const ConvGeom& g, float* output);

/// Depthwise convolution backward: computes input gradient and
/// accumulates weight/bias gradients.
void depthwise_conv_backward(const Tensor& input, const Tensor& weights,
                             const ConvGeom& g, const Tensor& out_grad,
                             Tensor& in_grad, Tensor& w_grad, float* b_grad);

/// Row-wise softmax of a [N, D] tensor.
void softmax_rows(const Tensor& logits, Tensor& probs);

/// log-sum-exp-stable row softmax + cross entropy against integer labels.
/// Returns mean loss; fills `probs`.
double softmax_cross_entropy(const Tensor& logits,
                             const std::vector<int>& labels, Tensor& probs);

}  // namespace edgestab
