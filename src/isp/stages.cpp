#include "isp/stages.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "image/color.h"
#include "tensor/backend.h"
#include "tensor/kernels_avx2.h"

namespace edgestab {

void black_level_subtract(RawImage& raw) {
  const float black = raw.black_level();
  const float scale = 1.0f / (1.0f - black);
  for (float& v : raw.data())
    v = std::max(0.0f, (v - black) * scale);
}

namespace {

/// Parity (x & 1, y & 1) of the red CFA site for `pattern`.
void red_site_parity(BayerPattern pattern, int& red_x, int& red_y) {
  red_x = red_y = 0;
  for (int py = 0; py < 2; ++py)
    for (int px = 0; px < 2; ++px)
      if (cfa_color(pattern, px, py) == 0) {
        red_x = px;
        red_y = py;
      }
}

/// Scalar-reference bilinear interpolation of one pixel: each missing
/// color is the average of adjacent same-color sites (out-of-bounds
/// neighbors are skipped, not clamped — clamping would mix in a
/// different CFA color at the borders).
void demosaic_bilinear_px(const RawImage& raw, Image& out, int x, int y) {
  const int w = raw.width();
  const int h = raw.height();
  int c = raw.color_at(x, y);
  out.at(x, y, c) = raw.at(x, y);
  for (int miss = 0; miss < 3; ++miss) {
    if (miss == c) continue;
    float sum = 0.0f;
    int count = 0;
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        int sx = x + dx, sy = y + dy;
        if (sx < 0 || sx >= w || sy < 0 || sy >= h) continue;
        if (raw.color_at(sx, sy) != miss) continue;
        sum += raw.at(sx, sy);
        ++count;
      }
    out.at(x, y, miss) = count > 0 ? sum / static_cast<float>(count)
                                   : raw.at(x, y);
  }
}

Image demosaic_bilinear(const RawImage& raw) {
  const int w = raw.width();
  const int h = raw.height();
  Image out(w, h, 3);
  if (use_avx2() && w >= 12 && h > 2) {
    // Interior rows run the vector kernel; the 1-pixel border keeps the
    // fully-checked scalar reference.
    for (int x = 0; x < w; ++x) {
      demosaic_bilinear_px(raw, out, x, 0);
      demosaic_bilinear_px(raw, out, x, h - 1);
    }
    for (int y = 1; y < h - 1; ++y) {
      demosaic_bilinear_px(raw, out, 0, y);
      demosaic_bilinear_px(raw, out, w - 1, y);
    }
    int red_x, red_y;
    red_site_parity(raw.pattern(), red_x, red_y);
    avx2::demosaic_bilinear_rows_f32(
        raw.data().data(), w, h, red_x, red_y, 1, h - 1,
        out.plane(0).data(), out.plane(1).data(), out.plane(2).data());
    return out;
  }
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) demosaic_bilinear_px(raw, out, x, y);
  return out;
}

/// Scalar-reference Malvar-He-Cutler interpolation of one pixel (the 5x5
/// kernels from the 2004 paper, coefficients /8).
void demosaic_malvar_px(const RawImage& raw, Image& out, int x, int y) {
  auto m = [&](int sx, int sy) { return raw.at_clamped(sx, sy); };
  int c = raw.color_at(x, y);
  float v0 = m(x, y);
  out.at(x, y, c) = v0;
  float cross = m(x - 1, y) + m(x + 1, y) + m(x, y - 1) + m(x, y + 1);
  float axial2 = m(x - 2, y) + m(x + 2, y) + m(x, y - 2) + m(x, y + 2);
  float diag = m(x - 1, y - 1) + m(x + 1, y - 1) + m(x - 1, y + 1) +
               m(x + 1, y + 1);
  if (c != 1) {
    // Green at an R or B site.
    float g = (2.0f * cross + 4.0f * v0 - axial2) / 8.0f;
    out.at(x, y, 1) = std::max(g, 0.0f);
    // Opposite color (R at B / B at R): diagonal kernel.
    float opp = (6.0f * v0 + 2.0f * diag - 1.5f * axial2) / 8.0f;
    out.at(x, y, c == 0 ? 2 : 0) = std::max(opp, 0.0f);
  } else {
    // At a green site: one of R/B has horizontal neighbors, the
    // other vertical.
    // Neighbor colors from CFA parity (pure function — safe at
    // borders where x+1 == w).
    int ch = cfa_color(raw.pattern(), x + 1, y);
    int cv = cfa_color(raw.pattern(), x, y + 1);
    float hor = (5.0f * v0 + 4.0f * (m(x - 1, y) + m(x + 1, y)) -
                 (m(x - 2, y) + m(x + 2, y)) +
                 0.5f * (m(x, y - 2) + m(x, y + 2)) - diag) /
                8.0f;
    float ver = (5.0f * v0 + 4.0f * (m(x, y - 1) + m(x, y + 1)) -
                 (m(x, y - 2) + m(x, y + 2)) +
                 0.5f * (m(x - 2, y) + m(x + 2, y)) - diag) /
                8.0f;
    out.at(x, y, ch) = std::max(hor, 0.0f);
    out.at(x, y, cv) = std::max(ver, 0.0f);
  }
}

Image demosaic_malvar(const RawImage& raw) {
  const int w = raw.width();
  const int h = raw.height();
  Image out(w, h, 3);
  if (use_avx2() && w >= 14 && h > 4) {
    // Interior rows run the vector kernel; the 2-pixel border (where
    // at_clamped taps clamp) keeps the scalar reference.
    for (int x = 0; x < w; ++x)
      for (int y : {0, 1, h - 2, h - 1}) demosaic_malvar_px(raw, out, x, y);
    for (int y = 2; y < h - 2; ++y)
      for (int x : {0, 1, w - 2, w - 1}) demosaic_malvar_px(raw, out, x, y);
    int red_x, red_y;
    red_site_parity(raw.pattern(), red_x, red_y);
    avx2::demosaic_malvar_rows_f32(
        raw.data().data(), w, h, red_x, red_y, 2, h - 2,
        out.plane(0).data(), out.plane(1).data(), out.plane(2).data());
    return out;
  }
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) demosaic_malvar_px(raw, out, x, y);
  return out;
}

}  // namespace

Image demosaic(const RawImage& raw, DemosaicKind kind) {
  switch (kind) {
    case DemosaicKind::kBilinear: return demosaic_bilinear(raw);
    case DemosaicKind::kMalvar: return demosaic_malvar(raw);
  }
  ES_CHECK_MSG(false, "unknown demosaic kind");
  return {};
}

void white_balance_preset(Image& rgb, const std::array<float, 3>& gains) {
  ES_CHECK(rgb.channels() == 3);
  for (int c = 0; c < 3; ++c) {
    float g = gains[static_cast<std::size_t>(c)];
    for (float& v : rgb.plane(c)) v *= g;
  }
}

void white_balance_gray_world(Image& rgb) {
  ES_CHECK(rgb.channels() == 3);
  std::array<double, 3> means{};
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0;
    for (float v : rgb.plane(c)) sum += v;
    means[static_cast<std::size_t>(c)] =
        sum / static_cast<double>(rgb.pixel_count());
  }
  double gray = (means[0] + means[1] + means[2]) / 3.0;
  std::array<float, 3> gains{};
  for (int c = 0; c < 3; ++c) {
    double m = std::max(means[static_cast<std::size_t>(c)], 1e-6);
    gains[static_cast<std::size_t>(c)] = static_cast<float>(gray / m);
  }
  white_balance_preset(rgb, gains);
}

void color_correct(Image& rgb, const std::array<float, 9>& matrix) {
  if (use_avx2()) {
    ES_CHECK(rgb.channels() == 3);
    // Fused matrix + clamp over the three planes.
    avx2::ccm_planes_f32(rgb.plane(0).data(), rgb.plane(1).data(),
                         rgb.plane(2).data(), rgb.pixel_count(),
                         matrix.data(), 0.0f, 4.0f);
    return;
  }
  apply_color_matrix(rgb, matrix);
  rgb.clamp(0.0f, 4.0f);  // allow modest overshoot; tone map clamps later
}

void denoise_box(Image& rgb, int radius, float strength) {
  if (radius <= 0 || strength <= 0.0f) return;
  ES_CHECK(strength <= 1.0f);
  Image blurred(rgb.width(), rgb.height(), rgb.channels());
  const float inv =
      1.0f / static_cast<float>((2 * radius + 1) * (2 * radius + 1));
  if (use_avx2()) {
    for (int c = 0; c < rgb.channels(); ++c)
      avx2::box_blur_plane_f32(rgb.plane(c).data(), rgb.width(),
                               rgb.height(), radius, inv,
                               blurred.plane(c).data());
  } else {
    for (int c = 0; c < rgb.channels(); ++c)
      for (int y = 0; y < rgb.height(); ++y)
        for (int x = 0; x < rgb.width(); ++x) {
          float sum = 0.0f;
          for (int dy = -radius; dy <= radius; ++dy)
            for (int dx = -radius; dx <= radius; ++dx)
              sum += rgb.at_clamped(x + dx, y + dy, c);
          blurred.at(x, y, c) = sum * inv;
        }
  }
  for (std::size_t i = 0; i < rgb.data().size(); ++i)
    rgb.data()[i] += (blurred.data()[i] - rgb.data()[i]) * strength;
}

namespace {

// The avx2 tone curve is a 1024-knot LUT uniform in sqrt(x) (gamma curves
// are near-linear in that domain, so linear interpolation holds ~1e-6 of
// the scalar pow even at the dark end). Knots are built with the scalar
// expression, so a curve is a pure function of (gamma, strength).
constexpr int kToneKnots = 1024;

// Each lane keeps the last few curves it built, keyed by the exact bits
// of (gamma, strength) and replaced oldest first. Bounded because a
// divergence sweep gives devices a new curve at every step. Like the
// resampling row tables, it is lane infrastructure and untracked.
const float* tone_curve_lut(float gamma, float s_curve_strength) {
  struct Curve {
    std::uint64_t key;
    std::array<float, kToneKnots + 1> lut;
  };
  constexpr std::size_t kCurves = 16;
  thread_local std::vector<Curve> curves;
  thread_local std::size_t oldest = 0;
  const std::uint64_t key =
      std::uint64_t{std::bit_cast<std::uint32_t>(gamma)} << 32 |
      std::bit_cast<std::uint32_t>(s_curve_strength);
  for (const Curve& curve : curves)
    if (curve.key == key) return curve.lut.data();
  Curve* slot;
  if (curves.size() < kCurves) {
    slot = &curves.emplace_back();
  } else {
    slot = &curves[oldest];
    oldest = (oldest + 1) % kCurves;
  }
  slot->key = key;
  const float inv_gamma = 1.0f / gamma;
  for (int i = 0; i < kToneKnots; ++i) {
    const float t = static_cast<float>(i) / (kToneKnots - 1);
    float g = std::pow(t * t, inv_gamma);
    if (s_curve_strength != 0.0f) {
      float s = g * g * (3.0f - 2.0f * g);
      g = g + (s - g) * s_curve_strength;
    }
    slot->lut[static_cast<std::size_t>(i)] = std::clamp(g, 0.0f, 1.0f);
  }
  slot->lut[kToneKnots] = slot->lut[kToneKnots - 1];
  return slot->lut.data();
}

}  // namespace

void tone_map(Image& rgb, float gamma, float s_curve_strength) {
  ES_CHECK(gamma > 0.0f);
  if (use_avx2()) {
    avx2::lut_map_sqrt_f32(rgb.data().data(), rgb.data().size(),
                           tone_curve_lut(gamma, s_curve_strength),
                           kToneKnots);
    return;
  }
  for (float& v : rgb.data()) {
    float g = std::pow(std::clamp(v, 0.0f, 1.0f), 1.0f / gamma);
    if (s_curve_strength != 0.0f) {
      // Smoothstep-based contrast curve blended with identity.
      float s = g * g * (3.0f - 2.0f * g);
      g = g + (s - g) * s_curve_strength;
    }
    v = std::clamp(g, 0.0f, 1.0f);
  }
}

void sharpen_unsharp(Image& rgb, int radius, float amount) {
  if (radius <= 0 || amount <= 0.0f) return;
  Image blurred(rgb.width(), rgb.height(), rgb.channels());
  const float inv =
      1.0f / static_cast<float>((2 * radius + 1) * (2 * radius + 1));
  if (use_avx2()) {
    for (int c = 0; c < rgb.channels(); ++c)
      avx2::box_blur_plane_f32(rgb.plane(c).data(), rgb.width(),
                               rgb.height(), radius, inv,
                               blurred.plane(c).data());
  } else {
    for (int c = 0; c < rgb.channels(); ++c)
      for (int y = 0; y < rgb.height(); ++y)
        for (int x = 0; x < rgb.width(); ++x) {
          float sum = 0.0f;
          for (int dy = -radius; dy <= radius; ++dy)
            for (int dx = -radius; dx <= radius; ++dx)
              sum += rgb.at_clamped(x + dx, y + dy, c);
          blurred.at(x, y, c) = sum * inv;
        }
  }
  for (std::size_t i = 0; i < rgb.data().size(); ++i) {
    float detail = rgb.data()[i] - blurred.data()[i];
    rgb.data()[i] = std::clamp(rgb.data()[i] + amount * detail, 0.0f, 1.0f);
  }
}

void saturate(Image& rgb, float factor) {
  ES_CHECK(rgb.channels() == 3);
  if (factor == 1.0f) return;
  float* r = rgb.plane(0).data();
  float* g = rgb.plane(1).data();
  float* b = rgb.plane(2).data();
  for (std::size_t i = 0; i < rgb.pixel_count(); ++i) {
    const float luma = 0.299f * r[i] + 0.587f * g[i] + 0.114f * b[i];
    r[i] = std::clamp(luma + (r[i] - luma) * factor, 0.0f, 1.0f);
    g[i] = std::clamp(luma + (g[i] - luma) * factor, 0.0f, 1.0f);
    b[i] = std::clamp(luma + (b[i] - luma) * factor, 0.0f, 1.0f);
  }
}

}  // namespace edgestab
