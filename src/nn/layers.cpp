#include "nn/layers.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "tensor/backend.h"
#include "tensor/int8.h"

namespace edgestab {

// ---- Conv2D ---------------------------------------------------------------

Conv2D::Conv2D(std::string name, int in_c, int out_c, int kernel, int stride,
               int pad, bool use_bias)
    : geom_{in_c, 0, 0, out_c, kernel, stride, pad},
      use_bias_(use_bias),
      weight_(name + ".w", {out_c, in_c * kernel * kernel}),
      bias_(name + ".b", {out_c}) {}

void Conv2D::init(Pcg32& rng) {
  int fan_in = geom_.in_c * geom_.kernel * geom_.kernel;
  float std = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (float& v : weight_.value.data())
    v = static_cast<float>(rng.normal(0.0, std));
  bias_.value.zero();
}

std::vector<Param*> Conv2D::params() {
  std::vector<Param*> p{&weight_};
  if (use_bias_) p.push_back(&bias_);
  return p;
}

namespace {
// A layer's fixed geometry completed with the spatial size of `input`.
ConvGeom geom_for(ConvGeom g, const Tensor& input) {
  ES_CHECK(input.rank() == 4 && input.dim(1) == g.in_c);
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  return g;
}

// The same for the arena's current activation.
ConvGeom geom_for(ConvGeom g, const ActShape& input) {
  ES_CHECK(input.rank == 4 && input.dim(1) == g.in_c);
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  return g;
}

// For a 1x1/stride-1/pad-0 conv the im2col matrix IS the input sample
// ([in_c, hw] row-major), so the eval forward feeds the input to the
// GEMM directly. Training still materializes the cols for backward.
bool identity_cols(const ConvGeom& g) {
  return g.kernel == 1 && g.stride == 1 && g.pad == 0;
}
}  // namespace

void Conv2D::infer(EvalArena& arena) const {
  ES_TRACE_SCOPE("nn", "conv");
  const ConvGeom g = geom_for(geom_, arena.shape());
  const int n_batch = arena.shape().dim(0);
  const float* in = arena.x();
  float* out = arena.next({4, {n_batch, g.out_c, g.out_h(), g.out_w()}});
  if (use_int8()) {
    infer_int8(in, n_batch, g, out, arena);
  } else {
    const std::size_t in_stride =
        static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
    const std::size_t ohw = static_cast<std::size_t>(g.out_h()) * g.out_w();
    const std::size_t out_stride = static_cast<std::size_t>(g.out_c) * ohw;
    const std::size_t ckk =
        static_cast<std::size_t>(g.in_c) * g.kernel * g.kernel;
    float* cols = identity_cols(g) ? nullptr : arena.cols(ckk * ohw);
    for (int n = 0; n < n_batch; ++n) {
      const float* sample = in + n * in_stride;
      if (cols != nullptr) im2col(sample, g, cols);  // writes every entry
      gemm_sample(cols != nullptr ? cols : sample, g, out + n * out_stride);
    }
  }
  arena.advance();
}

Tensor Conv2D::forward_train(const Tensor& input) {
  geom_ = geom_for(geom_, input);
  input_ = input;
  const int n_batch = input.dim(0);
  const int ohw = geom_.out_h() * geom_.out_w();
  const int ckk = geom_.in_c * geom_.kernel * geom_.kernel;
  const std::size_t in_stride =
      static_cast<std::size_t>(geom_.in_c) * geom_.in_h * geom_.in_w;
  const std::size_t out_stride = static_cast<std::size_t>(geom_.out_c) * ohw;
  // Every sample's im2col matrix is kept for backward().
  cols_.resize(static_cast<std::size_t>(n_batch));
  Tensor out = Tensor::uninit({n_batch, geom_.out_c, geom_.out_h(),
                               geom_.out_w()});
  for (int n = 0; n < n_batch; ++n) {
    Tensor& cols = cols_[static_cast<std::size_t>(n)];
    if (cols.numel() != static_cast<std::size_t>(ckk) * ohw)
      cols = Tensor::uninit({ckk, ohw});  // im2col writes every entry
    im2col(input.raw() + n * in_stride, geom_, cols.raw());
    gemm_sample(cols.raw(), geom_, out.raw() + n * out_stride);
  }
  return out;
}

void Conv2D::gemm_sample(const float* cols, const ConvGeom& g,
                         float* out) const {
  const int ckk = g.in_c * g.kernel * g.kernel;
  const int ohw = g.out_h() * g.out_w();
  gemm(weight_.value.raw(), cols, out, g.out_c, ckk, ohw,
       /*accumulate=*/false, mode_);
  if (use_bias_) {
    for (int c = 0; c < g.out_c; ++c) {
      float b = bias_.value[static_cast<std::size_t>(c)];
      for (int i = 0; i < ohw; ++i) out[c * ohw + i] += b;
    }
  }
}

void Conv2D::infer_int8(const float* input, int n_batch, const ConvGeom& g,
                        float* out, EvalArena& arena) const {
  const int ckk = g.in_c * g.kernel * g.kernel;
  const int ohw = g.out_h() * g.out_w();

  // Weights are re-quantized from the live float values every forward so
  // a freshly trained / mutated model never sees stale codes.
  std::int8_t* qw = arena.qweights(static_cast<std::size_t>(g.out_c) * ckk);
  float* w_scales = arena.scales(static_cast<std::size_t>(g.out_c));
  int8::quantize_rows(weight_.value.raw(), g.out_c, ckk, qw, w_scales);

  // Same 1x1 shortcut as the float path: the im2col matrix is the input
  // sample itself, so quantize straight from the input.
  const std::size_t cols_numel = static_cast<std::size_t>(ckk) * ohw;
  float* cols = identity_cols(g) ? nullptr : arena.cols(cols_numel);
  std::int8_t* qcols = arena.qacts(cols_numel);
  std::int32_t* acc = arena.acc(static_cast<std::size_t>(g.out_c) * ohw);
  const std::size_t in_stride =
      static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_stride = static_cast<std::size_t>(g.out_c) * ohw;

  for (int n = 0; n < n_batch; ++n) {
    const float* cols_ptr = input + n * in_stride;
    if (cols != nullptr) {
      im2col(cols_ptr, g, cols);
      cols_ptr = cols;
    }
    const float act_scale = int8::tensor_scale(cols_ptr, cols_numel);
    int8::quantize(cols_ptr, cols_numel, act_scale, qcols);
    int8::gemm_s8(qw, qcols, acc, g.out_c, ckk, ohw);
    int8::requant_rows(acc, g.out_c, ohw, act_scale, w_scales,
                       use_bias_ ? bias_.value.raw() : nullptr,
                       out + n * out_stride);
  }
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const int n_batch = input_.dim(0);
  const int oh = geom_.out_h();
  const int ow = geom_.out_w();
  const int ckk = geom_.in_c * geom_.kernel * geom_.kernel;
  const int ohw = oh * ow;
  ES_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == n_batch &&
           grad_output.dim(1) == geom_.out_c);

  Tensor in_grad(input_.shape());
  Tensor grad_cols({ckk, ohw});
  const std::size_t in_stride =
      static_cast<std::size_t>(geom_.in_c) * geom_.in_h * geom_.in_w;
  const std::size_t out_stride =
      static_cast<std::size_t>(geom_.out_c) * ohw;

  for (int n = 0; n < n_batch; ++n) {
    const float* go = grad_output.raw() + n * out_stride;
    const Tensor& cols = cols_[static_cast<std::size_t>(n)];
    // dW += dY * cols^T
    gemm_a_bt(go, cols.raw(), weight_.grad.raw(), geom_.out_c, ohw, ckk,
              /*accumulate=*/true);
    if (use_bias_) {
      for (int c = 0; c < geom_.out_c; ++c) {
        float sum = 0.0f;
        for (int i = 0; i < ohw; ++i) sum += go[c * ohw + i];
        bias_.grad[static_cast<std::size_t>(c)] += sum;
      }
    }
    // dCols = W^T * dY, then scatter back.
    gemm_at_b(weight_.value.raw(), go, grad_cols.raw(), ckk, geom_.out_c,
              ohw, /*accumulate=*/false);
    col2im(grad_cols.raw(), geom_, in_grad.raw() + n * in_stride);
  }
  return in_grad;
}

// ---- DepthwiseConv2D -------------------------------------------------------

DepthwiseConv2D::DepthwiseConv2D(std::string name, int channels, int kernel,
                                 int stride, int pad, bool use_bias)
    : geom_{channels, 0, 0, channels, kernel, stride, pad},
      use_bias_(use_bias),
      weight_(name + ".w", {channels, kernel, kernel}),
      bias_(name + ".b", {channels}) {}

void DepthwiseConv2D::init(Pcg32& rng) {
  int fan_in = geom_.kernel * geom_.kernel;
  float std = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (float& v : weight_.value.data())
    v = static_cast<float>(rng.normal(0.0, std));
  bias_.value.zero();
}

std::vector<Param*> DepthwiseConv2D::params() {
  std::vector<Param*> p{&weight_};
  if (use_bias_) p.push_back(&bias_);
  return p;
}

void DepthwiseConv2D::infer(EvalArena& arena) const {
  ES_TRACE_SCOPE("nn", "depthwise");
  const ConvGeom g = geom_for(geom_, arena.shape());
  const int n_batch = arena.shape().dim(0);
  float* out = arena.next({4, {n_batch, g.in_c, g.out_h(), g.out_w()}});
  if (use_int8())
    infer_int8(arena.x(), n_batch, g, out, arena);
  else
    depthwise_conv_forward(arena.x(), n_batch, weight_.value.raw(),
                           use_bias_ ? bias_.value.raw() : nullptr, g, out);
  arena.advance();
}

Tensor DepthwiseConv2D::forward_train(const Tensor& input) {
  geom_ = geom_for(geom_, input);
  input_ = input;
  Tensor out = Tensor::uninit(
      {input.dim(0), geom_.in_c, geom_.out_h(), geom_.out_w()});
  depthwise_conv_forward(input, weight_.value,
                         use_bias_ ? bias_.value.raw() : nullptr, geom_, out);
  return out;
}

void DepthwiseConv2D::infer_int8(const float* input, int n_batch,
                                 const ConvGeom& g, float* out,
                                 EvalArena& arena) const {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int kk = g.kernel * g.kernel;
  const std::size_t in_hw = static_cast<std::size_t>(g.in_h) * g.in_w;
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;

  std::int8_t* qw = arena.qweights(static_cast<std::size_t>(g.in_c) * kk);
  float* w_scales = arena.scales(static_cast<std::size_t>(g.in_c));
  int8::quantize_rows(weight_.value.raw(), g.in_c, kk, qw, w_scales);

  std::int8_t* qplane = arena.qacts(in_hw);
  for (int n = 0; n < n_batch; ++n) {
    for (int c = 0; c < g.in_c; ++c) {
      const float* in_plane =
          input + (static_cast<std::size_t>(n) * g.in_c + c) * in_hw;
      float* out_plane =
          out + (static_cast<std::size_t>(n) * g.in_c + c) * out_hw;
      const float act_scale = int8::tensor_scale(in_plane, in_hw);
      int8::quantize(in_plane, in_hw, act_scale, qplane);
      int8::depthwise_plane_s8(
          qplane, g.in_h, g.in_w, qw + static_cast<std::size_t>(c) * kk,
          g.kernel, g.stride, g.pad,
          use_bias_ ? bias_.value[static_cast<std::size_t>(c)] : 0.0f,
          act_scale * w_scales[static_cast<std::size_t>(c)], out_plane, oh,
          ow);
    }
  }
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_output) {
  Tensor in_grad(input_.shape());
  depthwise_conv_backward(input_, weight_.value, geom_, grad_output, in_grad,
                          weight_.grad,
                          use_bias_ ? bias_.grad.raw() : nullptr);
  return in_grad;
}

// ---- Dense ------------------------------------------------------------------

Dense::Dense(std::string name, int in_dim, int out_dim, bool use_bias)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      use_bias_(use_bias),
      weight_(name + ".w", {in_dim, out_dim}),
      bias_(name + ".b", {out_dim}) {}

void Dense::init(Pcg32& rng) {
  // Glorot uniform.
  float limit = std::sqrt(6.0f / static_cast<float>(in_dim_ + out_dim_));
  for (float& v : weight_.value.data())
    v = static_cast<float>(rng.uniform(-limit, limit));
  bias_.value.zero();
}

std::vector<Param*> Dense::params() {
  std::vector<Param*> p{&weight_};
  if (use_bias_) p.push_back(&bias_);
  return p;
}

void Dense::infer(EvalArena& arena) const {
  ES_TRACE_SCOPE("nn", "dense");
  ES_CHECK(arena.shape().rank == 2 && arena.shape().dim(1) == in_dim_);
  const int n = arena.shape().dim(0);
  float* out = arena.next({2, {n, out_dim_}});
  if (use_int8())
    infer_int8(arena.x(), n, out, arena);
  else
    affine(arena.x(), n, out);
  arena.advance();
}

Tensor Dense::forward_train(const Tensor& input) {
  ES_CHECK(input.rank() == 2 && input.dim(1) == in_dim_);
  input_ = input;
  Tensor out = Tensor::uninit({input.dim(0), out_dim_});
  affine(input.raw(), input.dim(0), out.raw());
  return out;
}

void Dense::affine(const float* input, int n, float* out) const {
  gemm(input, weight_.value.raw(), out, n, in_dim_, out_dim_,
       /*accumulate=*/false, mode_);
  if (use_bias_) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out_dim_; ++j)
        out[static_cast<std::size_t>(i) * out_dim_ + j] +=
            bias_.value[static_cast<std::size_t>(j)];
  }
}

void Dense::infer_int8(const float* input, int n, float* out,
                       EvalArena& arena) const {
  std::int8_t* qw =
      arena.qweights(static_cast<std::size_t>(in_dim_) * out_dim_);
  float* col_scales = arena.scales(static_cast<std::size_t>(out_dim_));
  int8::quantize_cols(weight_.value.raw(), in_dim_, out_dim_, qw,
                      col_scales);

  // Each row gets its own activation scale, so a row's logits never
  // depend on which other rows share the call.
  std::int8_t* qin = arena.qacts(static_cast<std::size_t>(in_dim_));
  std::int32_t* acc = arena.acc(static_cast<std::size_t>(out_dim_));
  for (int i = 0; i < n; ++i) {
    const float* row = input + static_cast<std::size_t>(i) * in_dim_;
    const float act_scale = int8::tensor_scale(row, in_dim_);
    int8::quantize(row, in_dim_, act_scale, qin);
    int8::gemm_s8(qin, qw, acc, 1, in_dim_, out_dim_);
    int8::requant_cols(acc, 1, out_dim_, act_scale, col_scales,
                       use_bias_ ? bias_.value.raw() : nullptr,
                       out + static_cast<std::size_t>(i) * out_dim_);
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  const int n = input_.dim(0);
  ES_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
           grad_output.dim(1) == out_dim_);
  // dW += X^T dY
  gemm_at_b(input_.raw(), grad_output.raw(), weight_.grad.raw(), in_dim_, n,
            out_dim_, /*accumulate=*/true);
  if (use_bias_) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out_dim_; ++j)
        bias_.grad[static_cast<std::size_t>(j)] += grad_output.at2(i, j);
  }
  // dX = dY W^T
  Tensor in_grad({n, in_dim_});
  gemm_a_bt(grad_output.raw(), weight_.value.raw(), in_grad.raw(), n,
            out_dim_, in_dim_, /*accumulate=*/false);
  return in_grad;
}

// ---- BatchNorm ---------------------------------------------------------------

BatchNorm::BatchNorm(std::string name, int channels, float momentum,
                     float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(name + ".gamma", {channels}),
      beta_(name + ".beta", {channels}),
      running_mean_({channels}),
      running_var_({channels}, 1.0f) {
  gamma_.value.fill(1.0f);
}

std::vector<Param*> BatchNorm::params() { return {&gamma_, &beta_}; }

namespace {
// Iterate a [N,C,H,W] or [N,C] tensor by channel.
struct BnDims {
  int n, c, hw;
};
BnDims bn_dims(const Tensor& t) {
  if (t.rank() == 4) return {t.dim(0), t.dim(1), t.dim(2) * t.dim(3)};
  ES_CHECK(t.rank() == 2);
  return {t.dim(0), t.dim(1), 1};
}
}  // namespace

Tensor BatchNorm::forward_train(const Tensor& input) {
  auto [n, c, hw] = bn_dims(input);
  ES_CHECK(c == channels_);
  Tensor out = Tensor::uninit(input.shape());
  input_ = input;
  batch_mean_.assign(static_cast<std::size_t>(c), 0.0f);
  batch_inv_std_.assign(static_cast<std::size_t>(c), 0.0f);
  const float inv_m = 1.0f / static_cast<float>(n * hw);
  for (int ch = 0; ch < c; ++ch) {
    double sum = 0.0;
    for (int b = 0; b < n; ++b) {
      const float* p = input.raw() +
                       (static_cast<std::size_t>(b) * c + ch) * hw;
      for (int i = 0; i < hw; ++i) sum += p[i];
    }
    float mean = static_cast<float>(sum) * inv_m;
    double var_sum = 0.0;
    for (int b = 0; b < n; ++b) {
      const float* p = input.raw() +
                       (static_cast<std::size_t>(b) * c + ch) * hw;
      for (int i = 0; i < hw; ++i) {
        double d = p[i] - mean;
        var_sum += d * d;
      }
    }
    float var = static_cast<float>(var_sum) * inv_m;
    batch_mean_[static_cast<std::size_t>(ch)] = mean;
    float inv_std = 1.0f / std::sqrt(var + eps_);
    batch_inv_std_[static_cast<std::size_t>(ch)] = inv_std;
    if (update_stats_) {
      running_mean_[static_cast<std::size_t>(ch)] =
          momentum_ * running_mean_[static_cast<std::size_t>(ch)] +
          (1.0f - momentum_) * mean;
      running_var_[static_cast<std::size_t>(ch)] =
          momentum_ * running_var_[static_cast<std::size_t>(ch)] +
          (1.0f - momentum_) * var;
    }
  }
  normalized_ = Tensor::uninit(input.shape());
  for (int ch = 0; ch < c; ++ch) {
    float mean = batch_mean_[static_cast<std::size_t>(ch)];
    float inv_std = batch_inv_std_[static_cast<std::size_t>(ch)];
    float g = gamma_.value[static_cast<std::size_t>(ch)];
    float be = beta_.value[static_cast<std::size_t>(ch)];
    for (int b = 0; b < n; ++b) {
      const float* src = input.raw() +
                         (static_cast<std::size_t>(b) * c + ch) * hw;
      float* nrm = normalized_.raw() +
                   (static_cast<std::size_t>(b) * c + ch) * hw;
      float* dst = out.raw() + (static_cast<std::size_t>(b) * c + ch) * hw;
      for (int i = 0; i < hw; ++i) {
        nrm[i] = (src[i] - mean) * inv_std;
        dst[i] = g * nrm[i] + be;
      }
    }
  }
  return out;
}

void BatchNorm::infer(EvalArena& arena) const {
  ES_TRACE_SCOPE("nn", "batchnorm");
  const ActShape& shape = arena.shape();
  ES_CHECK((shape.rank == 4 || shape.rank == 2) && shape.dim(1) == channels_);
  const int n = shape.dim(0), c = channels_;
  const int hw = shape.rank == 4 ? shape.dim(2) * shape.dim(3) : 1;
  float* x = arena.x_inplace();
  const bool folded = use_avx2();
  for (int ch = 0; ch < c; ++ch) {
    const std::size_t s = static_cast<std::size_t>(ch);
    const float mean = running_mean_[s];
    const float is = 1.0f / std::sqrt(running_var_[s] + eps_);
    const float g = gamma_.value[s];
    const float be = beta_.value[s];
    // avx2 tier: normalization folded into one scale + shift per channel
    // (x * sc + sh). Algebraically equal but not bit-equal to the
    // reference expression — a within-contract tier divergence (DESIGN.md
    // §15); the scalar tier keeps the reference operand order untouched.
    const float sc = g * is;
    const float sh = be - mean * sc;
    for (int b = 0; b < n; ++b) {
      float* p = x + (static_cast<std::size_t>(b) * c + ch) * hw;
      if (folded)
        for (int i = 0; i < hw; ++i) p[i] = p[i] * sc + sh;
      else
        for (int i = 0; i < hw; ++i) p[i] = g * (p[i] - mean) * is + be;
    }
  }
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  ES_CHECK_MSG(!normalized_.empty(),
               "BatchNorm::backward requires a training-mode forward");
  auto [n, c, hw] = bn_dims(input_);
  ES_CHECK(grad_output.same_shape(input_));
  Tensor in_grad(input_.shape());
  const float m = static_cast<float>(n * hw);
  for (int ch = 0; ch < c; ++ch) {
    float inv_std = batch_inv_std_[static_cast<std::size_t>(ch)];
    float g = gamma_.value[static_cast<std::size_t>(ch)];
    // Reductions.
    double sum_dy = 0.0, sum_dy_norm = 0.0;
    for (int b = 0; b < n; ++b) {
      const float* dy = grad_output.raw() +
                        (static_cast<std::size_t>(b) * c + ch) * hw;
      const float* nrm = normalized_.raw() +
                         (static_cast<std::size_t>(b) * c + ch) * hw;
      for (int i = 0; i < hw; ++i) {
        sum_dy += dy[i];
        sum_dy_norm += static_cast<double>(dy[i]) * nrm[i];
      }
    }
    gamma_.grad[static_cast<std::size_t>(ch)] +=
        static_cast<float>(sum_dy_norm);
    beta_.grad[static_cast<std::size_t>(ch)] += static_cast<float>(sum_dy);
    float k1 = g * inv_std / m;
    auto s_dy = static_cast<float>(sum_dy);
    auto s_dyn = static_cast<float>(sum_dy_norm);
    for (int b = 0; b < n; ++b) {
      const float* dy = grad_output.raw() +
                        (static_cast<std::size_t>(b) * c + ch) * hw;
      const float* nrm = normalized_.raw() +
                         (static_cast<std::size_t>(b) * c + ch) * hw;
      float* dx = in_grad.raw() + (static_cast<std::size_t>(b) * c + ch) * hw;
      for (int i = 0; i < hw; ++i)
        dx[i] = k1 * (m * dy[i] - s_dy - nrm[i] * s_dyn);
    }
  }
  return in_grad;
}

// ---- ReLU ----------------------------------------------------------------

void ReLU::apply(const float* src, std::size_t n, float* dst) const {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] = std::min(std::max(src[i], 0.0f), cap_);
}

void ReLU::infer(EvalArena& arena) const {
  float* x = arena.x_inplace();
  apply(x, arena.shape().numel(), x);
}

Tensor ReLU::forward_train(const Tensor& input) {
  input_ = input;  // backward's cache
  Tensor out = Tensor::uninit(input.shape());
  apply(input.raw(), input.numel(), out.raw());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  ES_CHECK(grad_output.same_shape(input_));
  Tensor in_grad(input_.shape());
  auto x = input_.data();
  auto dy = grad_output.data();
  auto dx = in_grad.data();
  for (std::size_t i = 0; i < x.size(); ++i)
    dx[i] = (x[i] > 0.0f && x[i] < cap_) ? dy[i] : 0.0f;
  return in_grad;
}

// ---- GlobalAvgPool --------------------------------------------------------

namespace {
// Mean of each of the n*c planes of hw values.
void avg_pool(const float* in, int n, int c, int hw, float* out) {
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t p = 0; p < static_cast<std::size_t>(n) * c; ++p) {
    const float* plane = in + p * hw;
    float sum = 0.0f;
    for (int i = 0; i < hw; ++i) sum += plane[i];
    out[p] = sum * inv;
  }
}
}  // namespace

void GlobalAvgPool::infer(EvalArena& arena) const {
  const ActShape& shape = arena.shape();
  ES_CHECK(shape.rank == 4);
  const int n = shape.dim(0), c = shape.dim(1);
  float* out = arena.next({2, {n, c}});
  avg_pool(arena.x(), n, c, shape.dim(2) * shape.dim(3), out);
  arena.advance();
}

Tensor GlobalAvgPool::forward_train(const Tensor& input) {
  ES_CHECK(input.rank() == 4);
  in_shape_ = input.shape();  // backward's cache
  Tensor out = Tensor::uninit({input.dim(0), input.dim(1)});
  avg_pool(input.raw(), input.dim(0), input.dim(1),
           input.dim(2) * input.dim(3), out.raw());
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const int n = in_shape_[0], c = in_shape_[1];
  const int hw = in_shape_[2] * in_shape_[3];
  ES_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == n &&
           grad_output.dim(1) == c);
  const float inv = 1.0f / static_cast<float>(hw);
  Tensor in_grad(in_shape_);
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch) {
      float g = grad_output.at2(b, ch) * inv;
      float* p = in_grad.raw() + (static_cast<std::size_t>(b) * c + ch) * hw;
      for (int i = 0; i < hw; ++i) p[i] = g;
    }
  return in_grad;
}

}  // namespace edgestab
