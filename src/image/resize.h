// Resampling and geometric transforms.
#pragma once

#include "image/image.h"

namespace edgestab {

// The values are pinned: they name the AllFilters test cases, and 0 and 2
// belonged to the removed nearest and Catmull-Rom filters.
enum class ResizeFilter {
  kBilinear = 1,
  kArea = 3,  ///< box average — best for large downscales (screen capture)
};

/// Resize to (out_w, out_h) with the given filter.
Image resize(const Image& src, int out_w, int out_h,
             ResizeFilter filter = ResizeFilter::kBilinear);

/// kArea's source span [lo, hi) of output index `i` along an axis of `n`
/// source samples, where scale = n / outputs: at least one sample,
/// clipped to the axis. The fused model input (data/dataset.cpp) uses
/// the same spans, so its box sums match resize's bit for bit.
struct AreaSpan {
  int lo;
  int hi;
};
AreaSpan area_span(int i, float scale, int n);

/// 2x3 affine matrix mapping output pixel coordinates to source
/// coordinates: src = M * [x, y, 1]^T.
struct Affine {
  float m[6];

  static Affine identity();
  static Affine translate(float dx, float dy);
  static Affine rotate_about(float radians, float cx, float cy);
  static Affine scale_about(float sx, float sy, float cx, float cy);
  /// Composition: (a.then(b)) maps through a first, then b... note this
  /// is in *output->source* convention: apply(a, apply(b, p)).
  Affine compose(const Affine& inner) const;
  void apply(float x, float y, float& ox, float& oy) const;
};

/// Warp with bilinear sampling and clamped borders.
Image warp_affine(const Image& src, const Affine& out_to_src, int out_w,
                  int out_h);

}  // namespace edgestab
