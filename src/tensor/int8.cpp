#include "tensor/int8.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace edgestab::int8 {

float tensor_scale(const float* data, std::size_t n) {
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < n; ++i)
    max_abs = std::max(max_abs, std::fabs(data[i]));
  return max_abs / 127.0f;
}

void quantize(const float* src, std::size_t n, float scale,
              std::int8_t* dst) {
  if (scale <= 0.0f) {
    std::fill(dst, dst + n, std::int8_t{0});
    return;
  }
  const float inv = 1.0f / scale;
  for (std::size_t i = 0; i < n; ++i) {
    long q = std::lround(src[i] * inv);
    q = std::clamp(q, -127L, 127L);
    dst[i] = static_cast<std::int8_t>(q);
  }
}

void quantize_rows(const float* src, int rows, int cols, std::int8_t* dst,
                   float* scales) {
  for (int i = 0; i < rows; ++i) {
    const float* row = src + static_cast<std::size_t>(i) * cols;
    scales[i] = tensor_scale(row, static_cast<std::size_t>(cols));
    quantize(row, static_cast<std::size_t>(cols), scales[i],
             dst + static_cast<std::size_t>(i) * cols);
  }
}

void quantize_cols(const float* src, int rows, int cols, std::int8_t* dst,
                   float* scales) {
  for (int j = 0; j < cols; ++j) {
    float max_abs = 0.0f;
    for (int i = 0; i < rows; ++i)
      max_abs = std::max(
          max_abs, std::fabs(src[static_cast<std::size_t>(i) * cols + j]));
    scales[j] = max_abs / 127.0f;
  }
  for (int i = 0; i < rows; ++i) {
    const float* row = src + static_cast<std::size_t>(i) * cols;
    std::int8_t* drow = dst + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) {
      if (scales[j] <= 0.0f) {
        drow[j] = 0;
        continue;
      }
      long q = std::lround(row[j] / scales[j]);
      drow[j] = static_cast<std::int8_t>(std::clamp(q, -127L, 127L));
    }
  }
}

std::int32_t sat32(std::int64_t v) {
  constexpr std::int64_t kMin = INT32_MIN;
  constexpr std::int64_t kMax = INT32_MAX;
  return static_cast<std::int32_t>(std::clamp(v, kMin, kMax));
}

void gemm_s8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
             int m, int k, int n) {
  // Per-lane scratch, grown once, so a call allocates nothing.
  thread_local std::vector<std::int64_t> scratch;
  if (scratch.size() < static_cast<std::size_t>(n))
    scratch.resize(static_cast<std::size_t>(n));
  std::int64_t* acc = scratch.data();
  for (int i = 0; i < m; ++i) {
    std::fill(acc, acc + n, std::int64_t{0});
    const std::int8_t* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const std::int64_t av = arow[p];
      if (av == 0) continue;
      const std::int8_t* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) acc[j] += av * brow[j];
    }
    std::int32_t* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) crow[j] = sat32(acc[j]);
  }
}

void requant_rows(const std::int32_t* acc, int m, int n, float act_scale,
                  const float* row_scales, const float* bias, float* out) {
  for (int i = 0; i < m; ++i) {
    const float scale = act_scale * row_scales[i];
    const float b = bias ? bias[i] : 0.0f;
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j)
      orow[j] = static_cast<float>(arow[j]) * scale + b;
  }
}

void requant_cols(const std::int32_t* acc, int m, int n, float act_scale,
                  const float* col_scales, const float* bias, float* out) {
  for (int i = 0; i < m; ++i) {
    const std::int32_t* arow = acc + static_cast<std::size_t>(i) * n;
    float* orow = out + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j)
      orow[j] = static_cast<float>(arow[j]) * (act_scale * col_scales[j]) +
                (bias ? bias[j] : 0.0f);
  }
}

void depthwise_plane_s8(const std::int8_t* in, int in_h, int in_w,
                        const std::int8_t* w, int kernel, int stride,
                        int pad, float bias, float combined_scale,
                        float* out, int out_h, int out_w) {
  for (int oy = 0; oy < out_h; ++oy) {
    float* orow = out + static_cast<std::size_t>(oy) * out_w;
    for (int ox = 0; ox < out_w; ++ox) {
      std::int64_t acc = 0;
      for (int ky = 0; ky < kernel; ++ky) {
        const int iy = oy * stride - pad + ky;
        if (iy < 0 || iy >= in_h) continue;
        const std::int8_t* irow = in + static_cast<std::size_t>(iy) * in_w;
        for (int kx = 0; kx < kernel; ++kx) {
          const int ix = ox * stride - pad + kx;
          if (ix < 0 || ix >= in_w) continue;
          acc += static_cast<std::int64_t>(w[ky * kernel + kx]) * irow[ix];
        }
      }
      orow[ox] = static_cast<float>(sat32(acc)) * combined_scale + bias;
    }
  }
}

}  // namespace edgestab::int8
