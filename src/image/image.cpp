#include "image/image.h"

#include <algorithm>
#include <cmath>

namespace edgestab {

Image::Image(int width, int height, int channels, float fill)
    : width_(width),
      height_(height),
      channels_(channels),
      data_(static_cast<std::size_t>(width) * height * channels, fill) {
  ES_CHECK(width > 0 && height > 0 && channels > 0);
}

float Image::at_clamped(int x, int y, int c) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y, c);
}

float Image::sample_bilinear(float x, float y, int c) const {
  float fx = std::floor(x);
  float fy = std::floor(y);
  int x0 = static_cast<int>(fx);
  int y0 = static_cast<int>(fy);
  float tx = x - fx;
  float ty = y - fy;
  float v00 = at_clamped(x0, y0, c);
  float v10 = at_clamped(x0 + 1, y0, c);
  float v01 = at_clamped(x0, y0 + 1, c);
  float v11 = at_clamped(x0 + 1, y0 + 1, c);
  float top = v00 + (v10 - v00) * tx;
  float bot = v01 + (v11 - v01) * tx;
  return top + (bot - top) * ty;
}

void Image::clamp(float lo, float hi) {
  for (float& v : data_) v = std::clamp(v, lo, hi);
}

void Image::add_scaled(const Image& other, float scale) {
  ES_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += other.data_[i] * scale;
}

void Image::scale(float s) {
  for (float& v : data_) v *= s;
}

ImageU8::ImageU8(int width, int height, int channels, std::uint8_t fill)
    : width_(width),
      height_(height),
      channels_(channels),
      data_(static_cast<std::size_t>(width) * height * channels, fill) {
  ES_CHECK(width > 0 && height > 0 && channels > 0);
}

// Both conversions walk the float planes and keep the per-value
// expressions of a pixel-major loop, so every byte and float matches it.
// to_u8 feeds every shot's encoder, so it interleaves three channels in
// one pass; other channel counts, and to_float, go one plane at a time.

ImageU8 to_u8(const Image& img) {
  ImageU8 out(img.width(), img.height(), img.channels());
  const auto quantize = [](float v) {
    return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 1.0f) * 255.0f +
                                     0.5f);
  };
  const std::size_t n = img.pixel_count();
  const int channels = img.channels();
  std::uint8_t* dst = out.data().data();
  if (channels == 3) {
    const float* r = img.plane(0).data();
    const float* g = img.plane(1).data();
    const float* b = img.plane(2).data();
    for (std::size_t i = 0; i < n; ++i) {
      dst[3 * i] = quantize(r[i]);
      dst[3 * i + 1] = quantize(g[i]);
      dst[3 * i + 2] = quantize(b[i]);
    }
    return out;
  }
  for (int c = 0; c < channels; ++c) {
    const float* src = img.plane(c).data();
    for (std::size_t i = 0; i < n; ++i)
      dst[i * channels + c] = quantize(src[i]);
  }
  return out;
}

Image to_float(const ImageU8& img) {
  Image out(img.width(), img.height(), img.channels());
  const std::size_t n = out.pixel_count();
  const int channels = img.channels();
  const std::uint8_t* src = img.data().data();
  for (int c = 0; c < channels; ++c) {
    float* dst = out.plane(c).data();
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = static_cast<float>(src[i * channels + c]) / 255.0f;
  }
  return out;
}

}  // namespace edgestab
