#include "nn/layers.h"

#include <cmath>
#include <cstdint>
#include <vector>

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
}  // namespace

Tensor Conv2D::infer(const Tensor& input) const {
  const ConvGeom g = geom_for(geom_, input);
  return use_int8() ? infer_int8(input, g) : conv(input, g, nullptr);
}

Tensor Conv2D::forward_train(const Tensor& input) {
  geom_ = geom_for(geom_, input);
  input_ = input;
  return conv(input, geom_, &cols_);
}

Tensor Conv2D::conv(const Tensor& input, const ConvGeom& g,
                    std::vector<Tensor>* keep_cols) const {
  const int n_batch = input.dim(0);
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int ckk = g.in_c * g.kernel * g.kernel;
  const int ohw = oh * ow;

  // The per-sample im2col buffers exist only for backward(); eval-mode
  // forwards skip them and run im2col through one scratch buffer reused
  // across the batch.
  if (keep_cols != nullptr)
    keep_cols->resize(static_cast<std::size_t>(n_batch));
  Tensor scratch_cols;
  Tensor out = Tensor::uninit({n_batch, g.out_c, oh, ow});
  const std::size_t in_stride =
      static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_stride = static_cast<std::size_t>(g.out_c) * ohw;

  // For a 1x1/stride-1/pad-0 conv the im2col matrix IS the input sample
  // ([in_c, hw] row-major), so eval-mode forwards feed the input to the
  // gemm directly. Training still materializes the cols for backward.
  const bool identity_cols = keep_cols == nullptr && g.kernel == 1 &&
                             g.stride == 1 && g.pad == 0;

  for (int n = 0; n < n_batch; ++n) {
    const float* cols_ptr;
    if (identity_cols) {
      cols_ptr = input.raw() + n * in_stride;
    } else {
      Tensor& cols = keep_cols != nullptr
                         ? (*keep_cols)[static_cast<std::size_t>(n)]
                         : scratch_cols;
      if (cols.numel() != static_cast<std::size_t>(ckk) * ohw)
        cols = Tensor::uninit({ckk, ohw});  // im2col writes every entry
      im2col(input.raw() + n * in_stride, g, cols.raw());
      cols_ptr = cols.raw();
    }
    gemm(weight_.value.raw(), cols_ptr, out.raw() + n * out_stride, g.out_c,
         ckk, ohw, /*accumulate=*/false, mode_);
    if (use_bias_) {
      float* dst = out.raw() + n * out_stride;
      for (int c = 0; c < g.out_c; ++c) {
        float b = bias_.value[static_cast<std::size_t>(c)];
        for (int i = 0; i < ohw; ++i) dst[c * ohw + i] += b;
      }
    }
  }
  return out;
}

Tensor Conv2D::infer_int8(const Tensor& input, const ConvGeom& g) const {
  const int n_batch = input.dim(0);
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int ckk = g.in_c * g.kernel * g.kernel;
  const int ohw = oh * ow;

  // Weights are re-quantized from the live float values every forward so
  // a freshly trained / mutated model never sees stale codes.
  std::vector<std::int8_t> qw(static_cast<std::size_t>(g.out_c) * ckk);
  std::vector<float> w_scales(static_cast<std::size_t>(g.out_c));
  int8::quantize_rows(weight_.value.raw(), g.out_c, ckk, qw.data(),
                      w_scales.data());

  // Same 1x1 shortcut as the float path: the im2col matrix is the input
  // sample itself, so quantize straight from the input.
  const bool identity_cols = g.kernel == 1 && g.stride == 1 && g.pad == 0;

  Tensor out = Tensor::uninit({n_batch, g.out_c, oh, ow});
  const std::size_t cols_numel = static_cast<std::size_t>(ckk) * ohw;
  Tensor cols;
  if (!identity_cols) cols = Tensor::uninit({ckk, ohw});
  std::vector<std::int8_t> qcols(cols_numel);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(g.out_c) * ohw);
  const std::size_t in_stride =
      static_cast<std::size_t>(g.in_c) * g.in_h * g.in_w;
  const std::size_t out_stride = static_cast<std::size_t>(g.out_c) * ohw;

  for (int n = 0; n < n_batch; ++n) {
    const float* cols_ptr = identity_cols ? input.raw() + n * in_stride
                                          : cols.raw();
    if (!identity_cols)
      im2col(input.raw() + n * in_stride, g, cols.raw());
    const float act_scale = int8::tensor_scale(cols_ptr, cols_numel);
    int8::quantize(cols_ptr, cols_numel, act_scale, qcols.data());
    int8::gemm_s8(qw.data(), qcols.data(), acc.data(), g.out_c, ckk,
                  ohw);
    int8::requant_rows(acc.data(), g.out_c, ohw, act_scale,
                       w_scales.data(),
                       use_bias_ ? bias_.value.raw() : nullptr,
                       out.raw() + n * out_stride);
  }
  return out;
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

Tensor DepthwiseConv2D::infer(const Tensor& input) const {
  const ConvGeom g = geom_for(geom_, input);
  return use_int8() ? infer_int8(input, g) : depthwise(input, g);
}

Tensor DepthwiseConv2D::forward_train(const Tensor& input) {
  geom_ = geom_for(geom_, input);
  input_ = input;
  return depthwise(input, geom_);
}

Tensor DepthwiseConv2D::depthwise(const Tensor& input,
                                  const ConvGeom& g) const {
  Tensor out = Tensor::uninit({input.dim(0), g.in_c, g.out_h(), g.out_w()});
  depthwise_conv_forward(input, weight_.value,
                         use_bias_ ? bias_.value.raw() : nullptr, g, out);
  return out;
}

Tensor DepthwiseConv2D::infer_int8(const Tensor& input,
                                   const ConvGeom& g) const {
  const int n_batch = input.dim(0);
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int kk = g.kernel * g.kernel;
  const std::size_t in_hw = static_cast<std::size_t>(g.in_h) * g.in_w;
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;

  std::vector<std::int8_t> qw(static_cast<std::size_t>(g.in_c) * kk);
  std::vector<float> w_scales(static_cast<std::size_t>(g.in_c));
  int8::quantize_rows(weight_.value.raw(), g.in_c, kk, qw.data(),
                      w_scales.data());

  Tensor out = Tensor::uninit({n_batch, g.in_c, oh, ow});
  std::vector<std::int8_t> qplane(in_hw);
  for (int n = 0; n < n_batch; ++n) {
    for (int c = 0; c < g.in_c; ++c) {
      const float* in_plane =
          input.raw() + (static_cast<std::size_t>(n) * g.in_c + c) * in_hw;
      float* out_plane =
          out.raw() + (static_cast<std::size_t>(n) * g.in_c + c) * out_hw;
      const float act_scale = int8::tensor_scale(in_plane, in_hw);
      int8::quantize(in_plane, in_hw, act_scale, qplane.data());
      int8::depthwise_plane_s8(
          qplane.data(), g.in_h, g.in_w,
          qw.data() + static_cast<std::size_t>(c) * kk, g.kernel,
          g.stride, g.pad,
          use_bias_ ? bias_.value[static_cast<std::size_t>(c)] : 0.0f,
          act_scale * w_scales[static_cast<std::size_t>(c)], out_plane, oh,
          ow);
    }
  }
  return out;
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

Tensor Dense::infer(const Tensor& input) const {
  ES_CHECK(input.rank() == 2 && input.dim(1) == in_dim_);
  return use_int8() ? infer_int8(input) : affine(input);
}

Tensor Dense::forward_train(const Tensor& input) {
  ES_CHECK(input.rank() == 2 && input.dim(1) == in_dim_);
  input_ = input;
  return affine(input);
}

Tensor Dense::affine(const Tensor& input) const {
  const int n = input.dim(0);
  Tensor out = Tensor::uninit({n, out_dim_});
  gemm(input.raw(), weight_.value.raw(), out.raw(), n, in_dim_, out_dim_,
       /*accumulate=*/false, mode_);
  if (use_bias_) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out_dim_; ++j)
        out.at2(i, j) += bias_.value[static_cast<std::size_t>(j)];
  }
  return out;
}

Tensor Dense::infer_int8(const Tensor& input) const {
  const int n = input.dim(0);
  std::vector<std::int8_t> qw(static_cast<std::size_t>(in_dim_) * out_dim_);
  std::vector<float> col_scales(static_cast<std::size_t>(out_dim_));
  int8::quantize_cols(weight_.value.raw(), in_dim_, out_dim_, qw.data(),
                      col_scales.data());

  const float act_scale = int8::tensor_scale(input.raw(), input.numel());
  std::vector<std::int8_t> qin(input.numel());
  int8::quantize(input.raw(), input.numel(), act_scale, qin.data());

  std::vector<std::int32_t> acc(static_cast<std::size_t>(n) * out_dim_);
  int8::gemm_s8(qin.data(), qw.data(), acc.data(), n, in_dim_, out_dim_);

  Tensor out({n, out_dim_});
  int8::requant_cols(acc.data(), n, out_dim_, act_scale, col_scales.data(),
                     use_bias_ ? bias_.value.raw() : nullptr, out.raw());
  return out;
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

Tensor BatchNorm::infer(const Tensor& input) const {
  auto [n, c, hw] = bn_dims(input);
  ES_CHECK(c == channels_);
  Tensor out = Tensor::uninit(input.shape());
  // Per-channel constants hoisted, then one contiguous sweep (sample
  // outer, channel inner) — same per-element arithmetic, so results
  // are bit-identical to the channel-outer order, just cache-friendly.
  std::vector<float> inv_std(static_cast<std::size_t>(c));
  for (int ch = 0; ch < c; ++ch)
    inv_std[static_cast<std::size_t>(ch)] =
        1.0f / std::sqrt(running_var_[static_cast<std::size_t>(ch)] + eps_);
  if (use_avx2()) {
    // avx2 tier: fold normalization into one scale + shift per channel
    // (dst = src * s + t). Algebraically equal but not bit-equal to
    // the reference expression — a within-contract tier divergence
    // (DESIGN.md §15); the scalar tier below keeps the reference
    // operand order untouched.
    std::vector<float> scale(static_cast<std::size_t>(c));
    std::vector<float> shift(static_cast<std::size_t>(c));
    for (int ch = 0; ch < c; ++ch) {
      const std::size_t s = static_cast<std::size_t>(ch);
      scale[s] = gamma_.value[s] * inv_std[s];
      shift[s] = beta_.value[s] - running_mean_[s] * scale[s];
    }
    for (int b = 0; b < n; ++b) {
      for (int ch = 0; ch < c; ++ch) {
        const float s = scale[static_cast<std::size_t>(ch)];
        const float t = shift[static_cast<std::size_t>(ch)];
        const float* src = input.raw() +
                           (static_cast<std::size_t>(b) * c + ch) * hw;
        float* dst = out.raw() + (static_cast<std::size_t>(b) * c + ch) * hw;
        for (int i = 0; i < hw; ++i) dst[i] = src[i] * s + t;
      }
    }
    return out;
  }
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const float mean = running_mean_[static_cast<std::size_t>(ch)];
      const float is = inv_std[static_cast<std::size_t>(ch)];
      const float g = gamma_.value[static_cast<std::size_t>(ch)];
      const float be = beta_.value[static_cast<std::size_t>(ch)];
      const float* src = input.raw() +
                         (static_cast<std::size_t>(b) * c + ch) * hw;
      float* dst = out.raw() + (static_cast<std::size_t>(b) * c + ch) * hw;
      for (int i = 0; i < hw; ++i)
        dst[i] = g * (src[i] - mean) * is + be;
    }
  }
  return out;
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

Tensor ReLU::infer(const Tensor& input) const {
  Tensor out = Tensor::uninit(input.shape());
  auto src = input.data();
  auto dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i] = std::min(std::max(src[i], 0.0f), cap_);
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

Tensor GlobalAvgPool::infer(const Tensor& input) const {
  ES_CHECK(input.rank() == 4);
  const int n = input.dim(0), c = input.dim(1);
  const int hw = input.dim(2) * input.dim(3);
  const float inv = 1.0f / static_cast<float>(hw);
  Tensor out = Tensor::uninit({n, c});
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch) {
      const float* p = input.raw() +
                       (static_cast<std::size_t>(b) * c + ch) * hw;
      float sum = 0.0f;
      for (int i = 0; i < hw; ++i) sum += p[i];
      out.at2(b, ch) = sum * inv;
    }
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
