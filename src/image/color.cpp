#include "image/color.h"

#include <algorithm>
#include <cmath>

namespace edgestab {

Image rgb_to_ycbcr(const Image& rgb) {
  ES_CHECK(rgb.channels() == 3);
  Image out(rgb.width(), rgb.height(), 3);
  for (int y = 0; y < rgb.height(); ++y)
    for (int x = 0; x < rgb.width(); ++x) {
      float yy, cb, cr;
      rgb_to_ycbcr(rgb.at(x, y, 0), rgb.at(x, y, 1), rgb.at(x, y, 2), yy, cb,
                   cr);
      out.at(x, y, 0) = yy;
      out.at(x, y, 1) = cb;
      out.at(x, y, 2) = cr;
    }
  return out;
}

Image ycbcr_to_rgb(const Image& ycc) {
  ES_CHECK(ycc.channels() == 3);
  Image out(ycc.width(), ycc.height(), 3);
  for (int y = 0; y < ycc.height(); ++y)
    for (int x = 0; x < ycc.width(); ++x) {
      float r, g, b;
      ycbcr_to_rgb(ycc.at(x, y, 0), ycc.at(x, y, 1), ycc.at(x, y, 2), r, g,
                   b);
      out.at(x, y, 0) = r;
      out.at(x, y, 1) = g;
      out.at(x, y, 2) = b;
    }
  return out;
}

void rgb_to_hsv(float r, float g, float b, float& h, float& s, float& v) {
  float mx = std::max({r, g, b});
  float mn = std::min({r, g, b});
  float d = mx - mn;
  v = mx;
  s = mx > 0.0f ? d / mx : 0.0f;
  if (d <= 0.0f) {
    h = 0.0f;
    return;
  }
  if (mx == r) {
    h = (g - b) / d;
    if (h < 0.0f) h += 6.0f;
  } else if (mx == g) {
    h = (b - r) / d + 2.0f;
  } else {
    h = (r - g) / d + 4.0f;
  }
  h /= 6.0f;
}

void hsv_to_rgb(float h, float s, float v, float& r, float& g, float& b) {
  h = h - std::floor(h);  // wrap into [0,1)
  float hf = h * 6.0f;
  int i = static_cast<int>(hf) % 6;
  float f = hf - std::floor(hf);
  float p = v * (1.0f - s);
  float q = v * (1.0f - s * f);
  float t = v * (1.0f - s * (1.0f - f));
  switch (i) {
    case 0: r = v; g = t; b = p; break;
    case 1: r = q; g = v; b = p; break;
    case 2: r = p; g = v; b = t; break;
    case 3: r = p; g = q; b = v; break;
    case 4: r = t; g = p; b = v; break;
    default: r = v; g = p; b = q; break;
  }
}

float srgb_encode(float linear) {
  linear = std::clamp(linear, 0.0f, 1.0f);
  if (linear <= 0.0031308f) return 12.92f * linear;
  return 1.055f * std::pow(linear, 1.0f / 2.4f) - 0.055f;
}

float srgb_decode(float encoded) {
  encoded = std::clamp(encoded, 0.0f, 1.0f);
  if (encoded <= 0.04045f) return encoded / 12.92f;
  return std::pow((encoded + 0.055f) / 1.055f, 2.4f);
}

Image srgb_encode(const Image& linear) {
  Image out(linear.width(), linear.height(), linear.channels());
  auto src = linear.data();
  auto dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = srgb_encode(src[i]);
  return out;
}

Image srgb_decode(const Image& encoded) {
  Image out(encoded.width(), encoded.height(), encoded.channels());
  auto src = encoded.data();
  auto dst = out.data();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = srgb_decode(src[i]);
  return out;
}

void apply_color_matrix(Image& img, const std::array<float, 9>& m) {
  ES_CHECK(img.channels() == 3);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      float r = img.at(x, y, 0);
      float g = img.at(x, y, 1);
      float b = img.at(x, y, 2);
      img.at(x, y, 0) = m[0] * r + m[1] * g + m[2] * b;
      img.at(x, y, 1) = m[3] * r + m[4] * g + m[5] * b;
      img.at(x, y, 2) = m[6] * r + m[7] * g + m[8] * b;
    }
}

void adjust_hsv(Image& img, float hue_offset, float sat_mul, float val_mul) {
  ES_CHECK(img.channels() == 3);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      float h, s, v;
      rgb_to_hsv(img.at(x, y, 0), img.at(x, y, 1), img.at(x, y, 2), h, s, v);
      h += hue_offset;
      s = std::clamp(s * sat_mul, 0.0f, 1.0f);
      v = std::clamp(v * val_mul, 0.0f, 1.0f);
      float r, g, b;
      hsv_to_rgb(h, s, v, r, g, b);
      img.at(x, y, 0) = r;
      img.at(x, y, 1) = g;
      img.at(x, y, 2) = b;
    }
}

void adjust_contrast_brightness(Image& img, float contrast, float brightness) {
  for (float& v : img.data()) {
    v = std::clamp((v - 0.5f) * contrast + 0.5f + brightness, 0.0f, 1.0f);
  }
}

}  // namespace edgestab
