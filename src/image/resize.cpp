#include "image/resize.h"

#include <algorithm>
#include <cmath>

namespace edgestab {

namespace {

float catmull_rom(float p0, float p1, float p2, float p3, float t) {
  float a = -0.5f * p0 + 1.5f * p1 - 1.5f * p2 + 0.5f * p3;
  float b = p0 - 2.5f * p1 + 2.0f * p2 - 0.5f * p3;
  float c = -0.5f * p0 + 0.5f * p2;
  return ((a * t + b) * t + c) * t + p1;
}

Image resize_nearest(const Image& src, int out_w, int out_h) {
  Image out(out_w, out_h, src.channels());
  for (int y = 0; y < out_h; ++y) {
    int sy = std::min(static_cast<int>((y + 0.5f) * src.height() / out_h),
                      src.height() - 1);
    for (int x = 0; x < out_w; ++x) {
      int sx = std::min(static_cast<int>((x + 0.5f) * src.width() / out_w),
                        src.width() - 1);
      for (int c = 0; c < src.channels(); ++c)
        out.at(x, y, c) = src.at(sx, sy, c);
    }
  }
  return out;
}

Image resize_bilinear(const Image& src, int out_w, int out_h) {
  Image out(out_w, out_h, src.channels());
  float sx_scale = static_cast<float>(src.width()) / out_w;
  float sy_scale = static_cast<float>(src.height()) / out_h;
  for (int y = 0; y < out_h; ++y) {
    float sy = (y + 0.5f) * sy_scale - 0.5f;
    for (int x = 0; x < out_w; ++x) {
      float sx = (x + 0.5f) * sx_scale - 0.5f;
      for (int c = 0; c < src.channels(); ++c)
        out.at(x, y, c) = src.sample_bilinear(sx, sy, c);
    }
  }
  return out;
}

Image resize_bicubic(const Image& src, int out_w, int out_h) {
  Image out(out_w, out_h, src.channels());
  float sx_scale = static_cast<float>(src.width()) / out_w;
  float sy_scale = static_cast<float>(src.height()) / out_h;
  for (int y = 0; y < out_h; ++y) {
    float sy = (y + 0.5f) * sy_scale - 0.5f;
    int y1 = static_cast<int>(std::floor(sy));
    float ty = sy - y1;
    for (int x = 0; x < out_w; ++x) {
      float sx = (x + 0.5f) * sx_scale - 0.5f;
      int x1 = static_cast<int>(std::floor(sx));
      float tx = sx - x1;
      for (int c = 0; c < src.channels(); ++c) {
        float rows[4];
        for (int j = 0; j < 4; ++j) {
          int yy = y1 - 1 + j;
          rows[j] = catmull_rom(src.at_clamped(x1 - 1, yy, c),
                                src.at_clamped(x1, yy, c),
                                src.at_clamped(x1 + 1, yy, c),
                                src.at_clamped(x1 + 2, yy, c), tx);
        }
        out.at(x, y, c) =
            catmull_rom(rows[0], rows[1], rows[2], rows[3], ty);
      }
    }
  }
  return out;
}

Image resize_area(const Image& src, int out_w, int out_h) {
  Image out(out_w, out_h, src.channels());
  float sx_scale = static_cast<float>(src.width()) / out_w;
  float sy_scale = static_cast<float>(src.height()) / out_h;
  for (int y = 0; y < out_h; ++y) {
    int y0 = static_cast<int>(y * sy_scale);
    int y1 = std::max(y0 + 1, static_cast<int>((y + 1) * sy_scale));
    y1 = std::min(y1, src.height());
    for (int x = 0; x < out_w; ++x) {
      int x0 = static_cast<int>(x * sx_scale);
      int x1 = std::max(x0 + 1, static_cast<int>((x + 1) * sx_scale));
      x1 = std::min(x1, src.width());
      float inv = 1.0f / static_cast<float>((x1 - x0) * (y1 - y0));
      for (int c = 0; c < src.channels(); ++c) {
        float sum = 0.0f;
        for (int yy = y0; yy < y1; ++yy)
          for (int xx = x0; xx < x1; ++xx) sum += src.at(xx, yy, c);
        out.at(x, y, c) = sum * inv;
      }
    }
  }
  return out;
}

}  // namespace

Image resize(const Image& src, int out_w, int out_h, ResizeFilter filter) {
  ES_CHECK(!src.empty());
  ES_CHECK(out_w > 0 && out_h > 0);
  if (out_w == src.width() && out_h == src.height()) return src;
  switch (filter) {
    case ResizeFilter::kNearest: return resize_nearest(src, out_w, out_h);
    case ResizeFilter::kBilinear: return resize_bilinear(src, out_w, out_h);
    case ResizeFilter::kBicubic: return resize_bicubic(src, out_w, out_h);
    case ResizeFilter::kArea: return resize_area(src, out_w, out_h);
  }
  ES_CHECK_MSG(false, "unknown filter");
  return {};
}

Image crop(const Image& src, int x0, int y0, int w, int h) {
  ES_CHECK(x0 >= 0 && y0 >= 0 && w > 0 && h > 0);
  ES_CHECK(x0 + w <= src.width() && y0 + h <= src.height());
  Image out(w, h, src.channels());
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      for (int c = 0; c < src.channels(); ++c)
        out.at(x, y, c) = src.at(x0 + x, y0 + y, c);
  return out;
}

Image flip_horizontal(const Image& src) {
  Image out(src.width(), src.height(), src.channels());
  for (int y = 0; y < src.height(); ++y)
    for (int x = 0; x < src.width(); ++x)
      for (int c = 0; c < src.channels(); ++c)
        out.at(x, y, c) = src.at(src.width() - 1 - x, y, c);
  return out;
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
  const std::size_t in_plane = src.pixel_count();
  const std::size_t out_plane = out.pixel_count();
  const float* in = src.data().data();
  float* dst = out.data().data();
  for (int y = 0; y < out_h; ++y)
    for (int x = 0; x < out_w; ++x) {
      float sx, sy;
      out_to_src.apply(static_cast<float>(x), static_cast<float>(y), sx, sy);
      // Image::sample_bilinear's floor, weights and clamped taps, computed
      // once for every plane.
      float fx = std::floor(sx);
      float fy = std::floor(sy);
      int x0 = static_cast<int>(fx);
      int y0 = static_cast<int>(fy);
      float tx = sx - fx;
      float ty = sy - fy;
      const std::size_t xa =
          static_cast<std::size_t>(std::clamp(x0, 0, w - 1));
      const std::size_t xb =
          static_cast<std::size_t>(std::clamp(x0 + 1, 0, w - 1));
      const std::size_t ra =
          static_cast<std::size_t>(std::clamp(y0, 0, h - 1) * w);
      const std::size_t rb =
          static_cast<std::size_t>(std::clamp(y0 + 1, 0, h - 1) * w);
      const std::size_t o = static_cast<std::size_t>(y) * out_w + x;
      for (int c = 0; c < src.channels(); ++c) {
        const float* p = in + static_cast<std::size_t>(c) * in_plane;
        float v00 = p[ra + xa];
        float v10 = p[ra + xb];
        float v01 = p[rb + xa];
        float v11 = p[rb + xb];
        float top = v00 + (v10 - v00) * tx;
        float bot = v01 + (v11 - v01) * tx;
        dst[static_cast<std::size_t>(c) * out_plane + o] =
            top + (bot - top) * ty;
      }
    }
  return out;
}

}  // namespace edgestab
