#include "codec/planes.h"

#include <algorithm>
#include <cmath>

#include "image/color.h"

namespace edgestab {
namespace codec_detail {

float Plane::at_clamped(int x, int y) const {
  x = std::clamp(x, 0, w - 1);
  y = std::clamp(y, 0, h - 1);
  return at(x, y);
}

Plane make_plane(int w, int h) {
  Plane p;
  p.w = w;
  p.h = h;
  p.v.assign(static_cast<std::size_t>(w) * h, 0.0f);
  return p;
}

void load_block(const Plane& p, int x0, int y0, int n, float* out) {
  if (x0 + n <= p.w && y0 + n <= p.h) {
    for (int y = 0; y < n; ++y)
      std::copy_n(&p.v[static_cast<std::size_t>(y0 + y) * p.w + x0], n,
                  out + y * n);
    return;
  }
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) out[y * n + x] = p.at_clamped(x0 + x, y0 + y);
}

int pad_to(int v, int block) { return (v + block - 1) / block * block; }

YccPlanes rgb_to_planes(const ImageU8& image) {
  ES_CHECK(image.channels() == 3);
  const int w = image.width();
  const int h = image.height();
  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;
  YccPlanes out;
  out.y = make_plane(w, h);
  out.cb = make_plane(cw, ch);
  out.cr = make_plane(cw, ch);
  // Full-resolution chroma of one row pair at a time.
  const auto uw = static_cast<std::size_t>(w);
  std::vector<float> cb_rows(2 * uw), cr_rows(2 * uw);
  for (int cy = 0; cy < ch; ++cy) {
    const int rows = std::min(2, h - 2 * cy);
    for (int dy = 0; dy < rows; ++dy) {
      const std::size_t row = static_cast<std::size_t>(2 * cy + dy) * uw;
      const std::uint8_t* px = image.data().data() + row * 3;
      float* y_out = out.y.v.data() + row;
      float* cb_out = cb_rows.data() + static_cast<std::size_t>(dy) * uw;
      float* cr_out = cr_rows.data() + static_cast<std::size_t>(dy) * uw;
      for (std::size_t x = 0; x < uw; ++x) {
        float r = px[3 * x] / 255.0f;
        float g = px[3 * x + 1] / 255.0f;
        float b = px[3 * x + 2] / 255.0f;
        float yy, cb, cr;
        rgb_to_ycbcr(r, g, b, yy, cb, cr);
        y_out[x] = yy * 255.0f - 128.0f;
        cb_out[x] = (cb - 0.5f) * 255.0f;
        cr_out[x] = (cr - 0.5f) * 255.0f;
      }
    }
    // 2x2 box average, summed in (dy, dx) order: the whole boxes in one
    // straight pass, then the partial ones on the right and bottom edges.
    float* cb_dst = out.cb.v.data() + static_cast<std::size_t>(cy) * cw;
    float* cr_dst = out.cr.v.data() + static_cast<std::size_t>(cy) * cw;
    const float* cb0 = cb_rows.data();
    const float* cb1 = cb0 + uw;
    const float* cr0 = cr_rows.data();
    const float* cr1 = cr0 + uw;
    const int whole = rows == 2 ? w / 2 : 0;
    for (int x = 0; x < whole; ++x) {
      cb_dst[x] = (0.0f + cb0[2 * x] + cb0[2 * x + 1] + cb1[2 * x] +
                   cb1[2 * x + 1]) / 4.0f;
      cr_dst[x] = (0.0f + cr0[2 * x] + cr0[2 * x + 1] + cr1[2 * x] +
                   cr1[2 * x + 1]) / 4.0f;
    }
    for (int x = whole; x < cw; ++x) {
      float scb = 0.0f, scr = 0.0f;
      int count = 0;
      for (int dy = 0; dy < rows; ++dy)
        for (int sx = 2 * x; sx < std::min(2 * x + 2, w); ++sx) {
          const std::size_t i = static_cast<std::size_t>(dy) * uw + sx;
          scb += cb_rows[i];
          scr += cr_rows[i];
          ++count;
        }
      cb_dst[x] = scb / static_cast<float>(count);
      cr_dst[x] = scr / static_cast<float>(count);
    }
  }
  return out;
}

ImageU8 planes_to_rgb(const YccPlanes& planes, int w, int h,
                      ChromaUpsample upsample) {
  ES_CHECK(planes.y.w == w && planes.y.h == h);
  ES_CHECK(planes.cr.w == planes.cb.w && planes.cr.h == planes.cb.h);
  // The chroma taps of an output coordinate along an axis of n samples:
  // nearest reads i0 alone, bilinear lerps i0 -> i1 by t.
  struct Tap {
    int i0, i1;
    float t;
  };
  const bool nearest = upsample == ChromaUpsample::kNearest;
  auto tap = [nearest](int x, int n) {
    if (nearest) {
      const int i = std::min(x / 2, n - 1);
      return Tap{i, i, 0.0f};
    }
    float f2 = (static_cast<float>(x) - 0.5f) / 2.0f;
    int i0 = std::clamp(static_cast<int>(std::floor(f2)), 0, n - 1);
    int i1 = std::min(i0 + 1, n - 1);
    float t = std::clamp(f2 - static_cast<float>(i0), 0.0f, 1.0f);
    return Tap{i0, i1, t};
  };
  const int cw = planes.cb.w;
  std::vector<Tap> cols(static_cast<std::size_t>(w));
  for (int x = 0; x < w; ++x) cols[static_cast<std::size_t>(x)] = tap(x, cw);

  // One output row of a chroma plane, upsampled.
  auto chroma_row = [&](const Plane& p, const Tap& row, float* dst) {
    const float* r0 = p.v.data() + static_cast<std::size_t>(row.i0) * cw;
    const float* r1 = p.v.data() + static_cast<std::size_t>(row.i1) * cw;
    if (nearest) {
      for (int x = 0; x < w; ++x)
        dst[x] = r0[cols[static_cast<std::size_t>(x)].i0];
      return;
    }
    for (int x = 0; x < w; ++x) {
      const Tap& c = cols[static_cast<std::size_t>(x)];
      float top = r0[c.i0] + (r0[c.i1] - r0[c.i0]) * c.t;
      float bot = r1[c.i0] + (r1[c.i1] - r1[c.i0]) * c.t;
      dst[x] = top + (bot - top) * row.t;
    }
  };

  ImageU8 out(w, h, 3);
  const auto uw = static_cast<std::size_t>(w);
  // Per row: upsampled Cb and Cr, then clamped interleaved R, G, B, which
  // a second straight pass converts to bytes.
  std::vector<float> chroma(2 * uw), rgb(3 * uw);
  float* cb_row = chroma.data();
  float* cr_row = cb_row + uw;
  Tap prev{-1, -1, 0.0f};
  for (int y = 0; y < h; ++y) {
    // Nearest repeats each chroma row twice; upsample it once.
    const Tap row = tap(y, planes.cb.h);
    if (row.i0 != prev.i0 || row.i1 != prev.i1 || row.t != prev.t) {
      chroma_row(planes.cb, row, cb_row);
      chroma_row(planes.cr, row, cr_row);
      prev = row;
    }
    const float* y_in = planes.y.v.data() + static_cast<std::size_t>(y) * uw;
    for (std::size_t x = 0; x < uw; ++x) {
      float yy = (y_in[x] + 128.0f) / 255.0f;
      float cb = cb_row[x] / 255.0f + 0.5f;
      float cr = cr_row[x] / 255.0f + 0.5f;
      float r, g, b;
      ycbcr_to_rgb(yy, cb, cr, r, g, b);
      rgb[3 * x] = std::clamp(r * 255.0f + 0.5f, 0.0f, 255.0f);
      rgb[3 * x + 1] = std::clamp(g * 255.0f + 0.5f, 0.0f, 255.0f);
      rgb[3 * x + 2] = std::clamp(b * 255.0f + 0.5f, 0.0f, 255.0f);
    }
    // Truncating through int is the direct float -> u8 conversion for
    // these in-range values, and it vectorizes.
    std::uint8_t* px = out.data().data() + static_cast<std::size_t>(y) * uw * 3;
    for (std::size_t i = 0; i < 3 * uw; ++i)
      px[i] = static_cast<std::uint8_t>(static_cast<int>(rgb[i]));
  }
  return out;
}

}  // namespace codec_detail
}  // namespace edgestab
