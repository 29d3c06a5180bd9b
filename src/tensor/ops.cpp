#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/backend.h"
#include "tensor/kernels_avx2.h"

namespace edgestab {

namespace {

void matmul_standard(const float* a, const float* b, float* c, int m, int k,
                     int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      const float* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Different accumulation order: four partial sums over strided k-slices,
// combined pairwise. Produces results that differ from the standard order
// in the last ULPs — the same class of difference as FMA contraction or
// SIMD-width changes between SoCs.
void matmul_blocked(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  // Per-lane scratch, grown once, so a call allocates nothing.
  thread_local std::vector<float> scratch;
  const std::size_t un = static_cast<std::size_t>(n);
  if (scratch.size() < 4 * un) scratch.resize(4 * un);
  float* acc0 = scratch.data();
  float* acc1 = acc0 + un;
  float* acc2 = acc1 + un;
  float* acc3 = acc2 + un;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    std::fill(acc0, acc0 + 4 * un, 0.0f);
    float* accs[4] = {acc0, acc1, acc2, acc3};
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float* acc = accs[p & 3];
      for (int j = 0; j < n; ++j) acc[j] += av * brow[j];
    }
    for (int j = 0; j < n; ++j)
      crow[j] += (acc0[j] + acc2[j]) + (acc1[j] + acc3[j]);
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate, MatmulMode mode) {
  // The AVX2 tier replaces only the standard order; kBlocked *is* a
  // modeled accumulation order (per-phone SoC behavior), so it always
  // runs the scalar reference. The AVX2 kernel handles the
  // non-accumulating case itself, so only the scalar paths pre-zero C.
  if (mode == MatmulMode::kStandard && use_avx2()) {
    avx2::gemm_f32(a, b, c, m, k, n, accumulate);
    return;
  }
  if (!accumulate)
    std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  switch (mode) {
    case MatmulMode::kStandard: matmul_standard(a, b, c, m, k, n); break;
    case MatmulMode::kBlocked: matmul_blocked(a, b, c, m, k, n); break;
  }
}

void gemm_at_b(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  if (!accumulate)
    std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<std::size_t>(p) * m;
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      float av = arow[i];
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  if (!accumulate)
    std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float sum = 0.0f;
      for (int p = 0; p < k; ++p) sum += arow[p] * brow[p];
      crow[j] += sum;
    }
  }
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
            MatmulMode mode) {
  ES_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  int m = a.dim(0), k = a.dim(1);
  ES_CHECK_MSG(b.dim(0) == k, "matmul inner dim mismatch");
  int n = b.dim(1);
  ES_CHECK(c.dim(0) == m && c.dim(1) == n);
  gemm(a.raw(), b.raw(), c.raw(), m, k, n, accumulate, mode);
}

void matmul_at_b(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate) {
  ES_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  int k = a.dim(0), m = a.dim(1);
  ES_CHECK(b.dim(0) == k);
  int n = b.dim(1);
  ES_CHECK(c.dim(0) == m && c.dim(1) == n);
  gemm_at_b(a.raw(), b.raw(), c.raw(), m, k, n, accumulate);
}

void matmul_a_bt(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate) {
  ES_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  int m = a.dim(0), k = a.dim(1);
  ES_CHECK(b.dim(1) == k);
  int n = b.dim(0);
  ES_CHECK(c.dim(0) == m && c.dim(1) == n);
  gemm_a_bt(a.raw(), b.raw(), c.raw(), m, k, n, accumulate);
}

void im2col(const float* input, const ConvGeom& g, float* cols) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  std::size_t row = 0;
  for (int c = 0; c < g.in_c; ++c) {
    const float* plane =
        input + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx, ++row) {
        float* dst = cols + row * out_hw;
        for (int oy = 0; oy < oh; ++oy) {
          int iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) {
            for (int ox = 0; ox < ow; ++ox) dst[oy * ow + ox] = 0.0f;
            continue;
          }
          const float* src_row =
              plane + static_cast<std::size_t>(iy) * g.in_w;
          if (g.stride == 1) {
            // Contiguous row: the in-range span is one copy, the
            // out-of-range edges are zeros — identical values to the
            // per-pixel checked loop below.
            const int ix_first = -g.pad + kx;  // ix at ox = 0
            const int lo = std::clamp(-ix_first, 0, ow);
            const int hi = std::clamp(g.in_w - ix_first, lo, ow);
            float* drow = dst + static_cast<std::size_t>(oy) * ow;
            for (int ox = 0; ox < lo; ++ox) drow[ox] = 0.0f;
            std::copy_n(src_row + ix_first + lo, hi - lo, drow + lo);
            for (int ox = hi; ox < ow; ++ox) drow[ox] = 0.0f;
            continue;
          }
          for (int ox = 0; ox < ow; ++ox) {
            int ix = ox * g.stride - g.pad + kx;
            dst[oy * ow + ox] =
                (ix >= 0 && ix < g.in_w) ? src_row[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, const ConvGeom& g, float* input_grad) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  std::size_t row = 0;
  for (int c = 0; c < g.in_c; ++c) {
    float* plane = input_grad + static_cast<std::size_t>(c) * g.in_h * g.in_w;
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* src = cols + row * out_hw;
        for (int oy = 0; oy < oh; ++oy) {
          int iy = oy * g.stride - g.pad + ky;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst_row = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (int ox = 0; ox < ow; ++ox) {
            int ix = ox * g.stride - g.pad + kx;
            if (ix >= 0 && ix < g.in_w) dst_row[ix] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

void depthwise_conv_forward(const Tensor& input, const Tensor& weights,
                            const float* bias, const ConvGeom& g,
                            Tensor& output) {
  ES_CHECK(input.rank() == 4 && output.rank() == 4);
  ES_CHECK(weights.rank() == 3 && weights.dim(0) == g.in_c &&
           weights.dim(1) == g.kernel && weights.dim(2) == g.kernel);
  const int n_batch = input.dim(0);
  ES_CHECK(input.dim(1) == g.in_c && input.dim(2) == g.in_h &&
           input.dim(3) == g.in_w);
  ES_CHECK(output.dim(0) == n_batch && output.dim(1) == g.in_c &&
           output.dim(2) == g.out_h() && output.dim(3) == g.out_w());
  depthwise_conv_forward(input.raw(), n_batch, weights.raw(), bias, g,
                         output.raw());
}

void depthwise_conv_forward(const float* input, int n_batch,
                            const float* weights, const float* bias,
                            const ConvGeom& g, float* output) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const std::size_t in_hw = static_cast<std::size_t>(g.in_h) * g.in_w;
  const std::size_t out_hw = static_cast<std::size_t>(oh) * ow;
  for (int n = 0; n < n_batch; ++n) {
    for (int c = 0; c < g.in_c; ++c) {
      const float* w = weights +
                       static_cast<std::size_t>(c) * g.kernel * g.kernel;
      float b = bias ? bias[c] : 0.0f;
      const float* in_plane =
          input + (static_cast<std::size_t>(n) * g.in_c + c) * in_hw;
      float* out_plane =
          output + (static_cast<std::size_t>(n) * g.in_c + c) * out_hw;
      if (use_avx2()) {
        avx2::depthwise_plane_f32(in_plane, g.in_h, g.in_w, w, g.kernel,
                                  g.stride, g.pad, b, out_plane, oh, ow);
        continue;
      }
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float sum = b;
          for (int ky = 0; ky < g.kernel; ++ky) {
            int iy = oy * g.stride - g.pad + ky;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int kx = 0; kx < g.kernel; ++kx) {
              int ix = ox * g.stride - g.pad + kx;
              if (ix < 0 || ix >= g.in_w) continue;
              sum += w[ky * g.kernel + kx] *
                     in_plane[static_cast<std::size_t>(iy) * g.in_w + ix];
            }
          }
          out_plane[static_cast<std::size_t>(oy) * ow + ox] = sum;
        }
      }
    }
  }
}

void depthwise_conv_backward(const Tensor& input, const Tensor& weights,
                             const ConvGeom& g, const Tensor& out_grad,
                             Tensor& in_grad, Tensor& w_grad, float* b_grad) {
  const int n_batch = input.dim(0);
  const int oh = g.out_h();
  const int ow = g.out_w();
  ES_CHECK(in_grad.same_shape(input));
  ES_CHECK(w_grad.same_shape(weights));
  for (int n = 0; n < n_batch; ++n) {
    for (int c = 0; c < g.in_c; ++c) {
      const float* w = weights.raw() +
                       static_cast<std::size_t>(c) * g.kernel * g.kernel;
      float* wg = w_grad.raw() +
                  static_cast<std::size_t>(c) * g.kernel * g.kernel;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float go = out_grad.at4(n, c, oy, ox);
          if (b_grad) b_grad[c] += go;
          for (int ky = 0; ky < g.kernel; ++ky) {
            int iy = oy * g.stride - g.pad + ky;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int kx = 0; kx < g.kernel; ++kx) {
              int ix = ox * g.stride - g.pad + kx;
              if (ix < 0 || ix >= g.in_w) continue;
              wg[ky * g.kernel + kx] += go * input.at4(n, c, iy, ix);
              in_grad.at4(n, c, iy, ix) += go * w[ky * g.kernel + kx];
            }
          }
        }
      }
    }
  }
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  ES_CHECK(logits.rank() == 2);
  ES_CHECK(probs.same_shape(logits));
  int n = logits.dim(0), d = logits.dim(1);
  for (int i = 0; i < n; ++i) {
    const float* row = logits.raw() + static_cast<std::size_t>(i) * d;
    float* out = probs.raw() + static_cast<std::size_t>(i) * d;
    float mx = row[0];
    for (int j = 1; j < d; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int j = 0; j < d; ++j) {
      out[j] = std::exp(row[j] - mx);
      sum += out[j];
    }
    float inv = 1.0f / sum;
    for (int j = 0; j < d; ++j) out[j] *= inv;
  }
}

double softmax_cross_entropy(const Tensor& logits,
                             const std::vector<int>& labels, Tensor& probs) {
  ES_CHECK(logits.rank() == 2);
  ES_CHECK(static_cast<int>(labels.size()) == logits.dim(0));
  softmax_rows(logits, probs);
  int n = logits.dim(0), d = logits.dim(1);
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    int y = labels[static_cast<std::size_t>(i)];
    ES_CHECK(y >= 0 && y < d);
    float p = probs.raw()[static_cast<std::size_t>(i) * d + y];
    loss -= std::log(std::max(p, 1e-12f));
  }
  return loss / n;
}

}  // namespace edgestab
