// Shared helpers for the lossy codecs: planar YCbCr working buffers,
// color conversion with level shift, and 4:2:0 subsampling.
#pragma once

#include <vector>

#include "image/image.h"

namespace edgestab {
namespace codec_detail {

/// A single float sample plane, centered representation (Y-128 /
/// chroma-128 style level shift applied by the converters below).
struct Plane {
  int w = 0, h = 0;
  std::vector<float> v;

  float at(int x, int y) const {
    return v[static_cast<std::size_t>(y) * w + x];
  }
  float& at(int x, int y) { return v[static_cast<std::size_t>(y) * w + x]; }
  /// Clamp-to-edge access for prediction contexts.
  float at_clamped(int x, int y) const;
};

Plane make_plane(int w, int h);

/// Copy the n*n block whose top-left sample is (x0, y0) into `out`
/// (row-major); samples past the plane's edge repeat the edge.
void load_block(const Plane& p, int x0, int y0, int n, float* out);

struct YccPlanes {
  Plane y;   ///< full resolution, level-shifted to [-128, 127]
  Plane cb;  ///< half resolution (4:2:0), centered on 0
  Plane cr;  ///< half resolution (4:2:0), centered on 0
};

/// RGB u8 -> level-shifted YCbCr with 4:2:0 box-averaged chroma.
YccPlanes rgb_to_planes(const ImageU8& image);

/// Chroma upsampling filters (paper §7: decoders differ exactly here).
enum class ChromaUpsample { kNearest, kBilinear };

/// Recombine planes into RGB u8 with rounding + clamping.
ImageU8 planes_to_rgb(const YccPlanes& planes, int w, int h,
                      ChromaUpsample upsample);

/// Round up to a multiple of `block`.
int pad_to(int v, int block);

}  // namespace codec_detail
}  // namespace edgestab
