#include "image/resize.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace edgestab {

namespace {

// Every kernel here is plane-major and keeps the per-sample float
// expressions of Image::sample_bilinear and of a per-output box sum, so
// its result is bit-identical to those references (tests/test_image.cpp).

// Image::sample_bilinear's floor, weight and clamped taps along one axis.
struct Tap {
  int a;    ///< clamp(floor(s), 0, n - 1)
  int b;    ///< clamp(floor(s) + 1, 0, n - 1)
  float t;  ///< s - floor(s)
};

Tap bilinear_tap(float s, int n) {
  float f = std::floor(s);
  int i = static_cast<int>(f);
  return {std::clamp(i, 0, n - 1), std::clamp(i + 1, 0, n - 1), s - f};
}

// One output row's tables: four int and two float columns. Each thread
// reuses its own, so a resample allocates only its output image.
struct RowTables {
  std::vector<int> i[4];
  std::vector<float> f[2];
};

RowTables& row_tables(int out_w) {
  thread_local RowTables tables;
  for (auto& v : tables.i) v.resize(static_cast<std::size_t>(out_w));
  for (auto& v : tables.f) v.resize(static_cast<std::size_t>(out_w));
  return tables;
}

Image resize_bilinear(const Image& src, int out_w, int out_h) {
  Image out(out_w, out_h, src.channels());
  const int w = src.width();
  const int h = src.height();
  float sx_scale = static_cast<float>(w) / out_w;
  float sy_scale = static_cast<float>(h) / out_h;
  RowTables& tables = row_tables(out_w);
  int* xa = tables.i[0].data();
  int* xb = tables.i[1].data();
  float* tx = tables.f[0].data();
  for (int x = 0; x < out_w; ++x) {
    float sx = (x + 0.5f) * sx_scale - 0.5f;
    const Tap col = bilinear_tap(sx, w);
    xa[x] = col.a;
    xb[x] = col.b;
    tx[x] = col.t;
  }
  for (int c = 0; c < src.channels(); ++c) {
    const float* in = src.plane(c).data();
    float* dst = out.plane(c).data();
    for (int y = 0; y < out_h; ++y, dst += out_w) {
      float sy = (y + 0.5f) * sy_scale - 0.5f;
      const Tap row = bilinear_tap(sy, h);
      const float* r0 = in + static_cast<std::size_t>(row.a) * w;
      const float* r1 = in + static_cast<std::size_t>(row.b) * w;
      const float ty = row.t;
      for (int x = 0; x < out_w; ++x) {
        float v00 = r0[xa[x]];
        float v10 = r0[xb[x]];
        float v01 = r1[xa[x]];
        float v11 = r1[xb[x]];
        float top = v00 + (v10 - v00) * tx[x];
        float bot = v01 + (v11 - v01) * tx[x];
        dst[x] = top + (bot - top) * ty;
      }
    }
  }
  return out;
}

Image resize_area(const Image& src, int out_w, int out_h) {
  Image out(out_w, out_h, src.channels());
  float sx_scale = static_cast<float>(src.width()) / out_w;
  float sy_scale = static_cast<float>(src.height()) / out_h;
  RowTables& tables = row_tables(out_w);
  // Each output column's box [x0, x1) in the source.
  int* x0 = tables.i[0].data();
  int* x1 = tables.i[1].data();
  float* inv = tables.f[0].data();
  float* sum = tables.f[1].data();
  for (int x = 0; x < out_w; ++x) {
    const AreaSpan span = area_span(x, sx_scale, src.width());
    x0[x] = span.lo;
    x1[x] = span.hi;
  }
  for (int y = 0; y < out_h; ++y) {
    const auto [y0, y1] = area_span(y, sy_scale, src.height());
    for (int x = 0; x < out_w; ++x)
      inv[x] = 1.0f / static_cast<float>((x1[x] - x0[x]) * (y1 - y0));
    for (int c = 0; c < src.channels(); ++c) {
      const float* in = src.plane(c).data();
      // Every output's running sum advances one source row at a time,
      // so each sum still adds its box in (row, column) order.
      std::fill(sum, sum + out_w, 0.0f);
      for (int yy = y0; yy < y1; ++yy) {
        const float* row = in + static_cast<std::size_t>(yy) * src.width();
        for (int x = 0; x < out_w; ++x)
          for (int xx = x0[x]; xx < x1[x]; ++xx) sum[x] += row[xx];
      }
      float* dst = out.plane(c).data() + static_cast<std::size_t>(y) * out_w;
      for (int x = 0; x < out_w; ++x) dst[x] = sum[x] * inv[x];
    }
  }
  return out;
}

}  // namespace

AreaSpan area_span(int i, float scale, int n) {
  const int lo = static_cast<int>(i * scale);
  const int hi = std::max(lo + 1, static_cast<int>((i + 1) * scale));
  return {lo, std::min(hi, n)};
}

Image resize(const Image& src, int out_w, int out_h, ResizeFilter filter) {
  ES_CHECK(!src.empty());
  ES_CHECK(out_w > 0 && out_h > 0);
  if (out_w == src.width() && out_h == src.height()) return src;
  switch (filter) {
    case ResizeFilter::kBilinear: return resize_bilinear(src, out_w, out_h);
    case ResizeFilter::kArea: return resize_area(src, out_w, out_h);
  }
  ES_CHECK_MSG(false, "unknown filter");
  return {};
}

Affine Affine::identity() { return {{1, 0, 0, 0, 1, 0}}; }

Affine Affine::translate(float dx, float dy) {
  return {{1, 0, dx, 0, 1, dy}};
}

Affine Affine::rotate_about(float radians, float cx, float cy) {
  float c = std::cos(radians);
  float s = std::sin(radians);
  // Rotate about (cx, cy): T(c) * R * T(-c)
  return {{c, -s, cx - c * cx + s * cy, s, c, cy - s * cx - c * cy}};
}

Affine Affine::scale_about(float sx, float sy, float cx, float cy) {
  return {{sx, 0, cx - sx * cx, 0, sy, cy - sy * cy}};
}

Affine Affine::compose(const Affine& inner) const {
  // result(p) = this(inner(p))
  Affine r;
  r.m[0] = m[0] * inner.m[0] + m[1] * inner.m[3];
  r.m[1] = m[0] * inner.m[1] + m[1] * inner.m[4];
  r.m[2] = m[0] * inner.m[2] + m[1] * inner.m[5] + m[2];
  r.m[3] = m[3] * inner.m[0] + m[4] * inner.m[3];
  r.m[4] = m[3] * inner.m[1] + m[4] * inner.m[4];
  r.m[5] = m[3] * inner.m[2] + m[4] * inner.m[5] + m[5];
  return r;
}

void Affine::apply(float x, float y, float& ox, float& oy) const {
  ox = m[0] * x + m[1] * y + m[2];
  oy = m[3] * x + m[4] * y + m[5];
}

Image warp_affine(const Image& src, const Affine& out_to_src, int out_w,
                  int out_h) {
  Image out(out_w, out_h, src.channels());
  const int w = src.width();
  const int h = src.height();
  // Per output row: the four flat tap indices and both weights of every
  // column, then one gather-and-lerp pass per plane.
  RowTables& tables = row_tables(out_w);
  int* i00 = tables.i[0].data();
  int* i10 = tables.i[1].data();
  int* i01 = tables.i[2].data();
  int* i11 = tables.i[3].data();
  float* tx = tables.f[0].data();
  float* ty = tables.f[1].data();
  for (int y = 0; y < out_h; ++y) {
    for (int x = 0; x < out_w; ++x) {
      float sx, sy;
      out_to_src.apply(static_cast<float>(x), static_cast<float>(y), sx, sy);
      const Tap col = bilinear_tap(sx, w);
      const Tap row = bilinear_tap(sy, h);
      i00[x] = row.a * w + col.a;
      i10[x] = row.a * w + col.b;
      i01[x] = row.b * w + col.a;
      i11[x] = row.b * w + col.b;
      tx[x] = col.t;
      ty[x] = row.t;
    }
    for (int c = 0; c < src.channels(); ++c) {
      const float* p = src.plane(c).data();
      float* dst =
          out.plane(c).data() + static_cast<std::size_t>(y) * out_w;
      for (int x = 0; x < out_w; ++x) {
        float v00 = p[i00[x]];
        float v10 = p[i10[x]];
        float v01 = p[i01[x]];
        float v11 = p[i11[x]];
        float top = v00 + (v10 - v00) * tx[x];
        float bot = v01 + (v11 - v01) * tx[x];
        dst[x] = top + (bot - top) * ty[x];
      }
    }
  }
  return out;
}

}  // namespace edgestab
