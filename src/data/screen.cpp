#include "data/screen.h"

#include "image/color.h"
#include "image/resize.h"
#include "obs/obs.h"

namespace edgestab {

Image display_on_screen(const Image& srgb_image, const ScreenConfig& config) {
  ES_TRACE_SCOPE("data", "display");
  ES_CHECK(srgb_image.channels() == 3);
  ES_CHECK(config.output_scale >= 1);

  // Upsample to the emitted resolution (the monitor is much denser than
  // the photographed framing).
  Image emission = config.output_scale == 1
                       ? srgb_image
                       : resize(srgb_image,
                                srgb_image.width() * config.output_scale,
                                srgb_image.height() * config.output_scale,
                                ResizeFilter::kBilinear);

  // Backlight, white point and subpixel grid fold into one gain per
  // (channel, x % 3): every third emitted column favors one channel.
  float gain[3][3];
  for (int c = 0; c < 3; ++c)
    for (int phase = 0; phase < 3; ++phase) {
      float grid = 1.0f;
      if (config.pixel_grid > 0.0f)
        grid = (phase == c) ? 1.0f + config.pixel_grid
                            : 1.0f - config.pixel_grid * 0.5f;
      gain[c][phase] = config.backlight *
                       config.white_point[static_cast<std::size_t>(c)] * grid;
    }
  const int w = emission.width();
  for (int c = 0; c < 3; ++c) {
    float* p = emission.plane(c).data();
    for (int y = 0; y < emission.height(); ++y, p += w)
      for (int x = 0; x < w; ++x) {
        float v = srgb_decode(p[x]);
        v = config.black_level + (1.0f - config.black_level) * v;
        v *= gain[c][x % 3];
        p[x] = v;
      }
  }
  return emission;
}

}  // namespace edgestab
