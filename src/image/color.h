// Color space conversions used by codecs (YCbCr), the ISP (gamma, white
// balance) and distortion-noise augmentation (HSV).
#pragma once

#include <array>

#include "image/image.h"

namespace edgestab {

/// Full-range BT.601 RGB -> YCbCr. Inputs/outputs in [0,1]; Cb/Cr are
/// stored offset by +0.5 so the whole image stays in [0,1].
/// Inline so the codecs' per-pixel plane loops compile them in place.
inline void rgb_to_ycbcr(float r, float g, float b, float& y, float& cb,
                         float& cr) {
  y = 0.299f * r + 0.587f * g + 0.114f * b;
  cb = 0.5f + (b - y) * 0.564f;
  cr = 0.5f + (r - y) * 0.713f;
}

inline void ycbcr_to_rgb(float y, float cb, float cr, float& r, float& g,
                         float& b) {
  float cbc = cb - 0.5f;
  float crc = cr - 0.5f;
  r = y + 1.403f * crc;
  g = y - 0.344f * cbc - 0.714f * crc;
  b = y + 1.773f * cbc;
}

/// Whole-image conversions (3-channel planar).
Image rgb_to_ycbcr(const Image& rgb);
Image ycbcr_to_rgb(const Image& ycc);

/// RGB <-> HSV, all components in [0,1] (hue wraps).
void rgb_to_hsv(float r, float g, float b, float& h, float& s, float& v);
void hsv_to_rgb(float h, float s, float v, float& r, float& g, float& b);

/// sRGB transfer function (approximate 2.2 pipeline uses the exact
/// piecewise curve for fidelity).
float srgb_encode(float linear);
float srgb_decode(float encoded);
Image srgb_encode(const Image& linear);
Image srgb_decode(const Image& encoded);

/// Apply a 3x3 color matrix (row-major) to a 3-channel image in place.
void apply_color_matrix(Image& img, const std::array<float, 9>& m);

/// Adjust hue (offset in turns), saturation (multiplier), value
/// (multiplier) — used by the distortion noise generator.
void adjust_hsv(Image& img, float hue_offset, float sat_mul, float val_mul);

/// Adjust contrast around 0.5 and brightness (additive), clamped.
void adjust_contrast_brightness(Image& img, float contrast, float brightness);

}  // namespace edgestab
