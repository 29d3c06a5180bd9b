#include "isp/sensor.h"

#include <algorithm>
#include <cmath>

#include "image/resize.h"
#include "isp/noise.h"
#include "obs/obs.h"
#include "util/hashing.h"

namespace edgestab {

namespace {

/// Box blur with a fractional radius: full blur at radius >= 1, blended
/// toward the original below that.
Image defocus_blur(const Image& img, float radius) {
  int r = std::max(1, static_cast<int>(std::ceil(radius)));
  Image blurred(img.width(), img.height(), img.channels());
  const float inv = 1.0f / static_cast<float>((2 * r + 1) * (2 * r + 1));
  for (int c = 0; c < img.channels(); ++c)
    for (int y = 0; y < img.height(); ++y)
      for (int x = 0; x < img.width(); ++x) {
        float sum = 0.0f;
        for (int dy = -r; dy <= r; ++dy)
          for (int dx = -r; dx <= r; ++dx)
            sum += img.at_clamped(x + dx, y + dy, c);
        blurred.at(x, y, c) = sum * inv;
      }
  float blend = std::min(radius, 1.0f);
  Image out = img;
  out.scale(1.0f - blend);
  out.add_scaled(blurred, blend);
  return out;
}

/// Lateral chromatic aberration: the red and blue channels are sampled
/// at slightly different radial magnifications.
Image apply_chromatic_aberration(const Image& img, float strength) {
  Image out(img.width(), img.height(), 3);
  float cx = static_cast<float>(img.width()) / 2.0f;
  float cy = static_cast<float>(img.height()) / 2.0f;
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      float dx = static_cast<float>(x) + 0.5f - cx;
      float dy = static_cast<float>(y) + 0.5f - cy;
      out.at(x, y, 1) = img.at(x, y, 1);
      float sr = 1.0f - strength;
      out.at(x, y, 0) =
          img.sample_bilinear(cx + dx * sr - 0.5f, cy + dy * sr - 0.5f, 0);
      float sb = 1.0f + strength;
      out.at(x, y, 2) =
          img.sample_bilinear(cx + dx * sb - 0.5f, cy + dy * sb - 0.5f, 2);
    }
  return out;
}

}  // namespace

Image sensor_signal(const Image& scene_linear, const SensorConfig& config) {
  ES_TRACE_SCOPE("sensor", "signal");
  ES_CHECK(scene_linear.channels() == 3);
  // Resample the scene onto the sensor grid.
  Image scene = resize(scene_linear, config.width, config.height,
                       ResizeFilter::kArea);
  // Optics before the photosites.
  if (config.defocus > 0.0f) scene = defocus_blur(scene, config.defocus);
  if (config.chroma_aberration > 0.0f)
    scene = apply_chromatic_aberration(scene, config.chroma_aberration);

  // Fixed-pattern PRNU for this sensor unit: one counter-based normal per
  // photosite, keyed by the unit seed. The map holds them until the loop
  // below overwrites each with its signal.
  Image signal_map(config.width, config.height, 1);
  noise::prnu_normals(config.unit_seed, signal_map.data().data(),
                      signal_map.data().size());

  const float cx = static_cast<float>(config.width) / 2.0f;
  const float cy = static_cast<float>(config.height) / 2.0f;
  const float max_r2 = cx * cx + cy * cy;

  for (int y = 0; y < config.height; ++y) {
    for (int x = 0; x < config.width; ++x) {
      int c = cfa_color(config.pattern, x, y);
      float signal = scene.at(x, y, c) *
                     config.channel_response[static_cast<std::size_t>(c)] *
                     config.exposure;

      // Vignetting: cos^4-like falloff toward corners.
      float dx = (static_cast<float>(x) + 0.5f - cx);
      float dy = (static_cast<float>(y) + 0.5f - cy);
      float falloff = 1.0f - config.vignetting * (dx * dx + dy * dy) / max_r2;
      signal *= falloff;

      float& site = signal_map.at(x, y, 0);
      signal *= 1.0f + config.prnu_sigma * site;
      site = std::max(signal, 0.0f);
    }
  }
  return signal_map;
}

RawImage sample_sensor(const Image& signal_map, const SensorConfig& config,
                       Pcg32& rng) {
  ES_TRACE_SCOPE("sensor", "expose");
  ES_CHECK(signal_map.channels() == 1 &&
           signal_map.width() == config.width &&
           signal_map.height() == config.height);
  RawImage raw(config.width, config.height, config.pattern,
               config.black_level, config.bit_depth);
  noise::ShotParams params;
  params.key = rng.next_u64();
  params.full_well = config.full_well;
  params.read_noise = config.read_noise;
  params.black_level = config.black_level;
  params.max_code = static_cast<float>((1 << config.bit_depth) - 1);
  noise::sample_shot(signal_map.data().data(), raw.data().data(),
                     raw.data().size(), params);
  return raw;
}

RawImage expose_sensor(const Image& scene_linear, const SensorConfig& config,
                       Pcg32& rng) {
  return sample_sensor(sensor_signal(scene_linear, config), config, rng);
}

std::uint64_t sensor_digest(const SensorConfig& config) {
  Fingerprint fp;
  fp.add("sensor-config-v1");
  fp.add(config.width).add(config.height);
  fp.add(static_cast<int>(config.pattern));
  for (float r : config.channel_response) fp.add(static_cast<double>(r));
  fp.add(static_cast<double>(config.exposure))
      .add(static_cast<double>(config.full_well))
      .add(static_cast<double>(config.read_noise))
      .add(static_cast<double>(config.prnu_sigma))
      .add(static_cast<double>(config.vignetting))
      .add(static_cast<double>(config.black_level));
  fp.add(config.bit_depth);
  fp.add(static_cast<double>(config.defocus))
      .add(static_cast<double>(config.chroma_aberration));
  fp.add(config.unit_seed);
  return fp.value();
}

}  // namespace edgestab
