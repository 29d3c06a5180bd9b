// Camera sensor model: spectral response, exposure, vignetting, PRNU,
// shot noise, read noise, black level, ADC quantization.
//
// This is the physical front of the simulated phone. Per-device parameter
// differences here (plus the per-device ISP behind it) generate the
// input-side variability that the paper measures.
#pragma once

#include <array>
#include <cstdint>

#include "image/image.h"
#include "isp/raw.h"
#include "util/rng.h"

namespace edgestab {

struct SensorConfig {
  int width = 64;
  int height = 64;
  BayerPattern pattern = BayerPattern::kRggb;

  /// Per-channel spectral response gains applied to scene linear RGB
  /// before sampling — models different color filter arrays.
  std::array<float, 3> channel_response = {1.0f, 1.0f, 1.0f};

  float exposure = 1.0f;          ///< linear gain before the ADC
  float full_well = 22000.0f;      ///< electrons at saturation (shot noise)
  float read_noise = 1.0f;        ///< electrons RMS (Gaussian)
  float prnu_sigma = 0.004f;      ///< per-pixel fixed-pattern gain spread
  float vignetting = 0.15f;       ///< corner light falloff fraction
  float black_level = 0.06f;      ///< ADC pedestal fraction
  int bit_depth = 10;

  // Optics (0 = ideal lens; both default off so fleets opt in).
  float defocus = 0.0f;            ///< blur radius in sensor pixels
  float chroma_aberration = 0.0f;  ///< radial R/B magnification split

  std::uint64_t unit_seed = 1;    ///< fixes the PRNU pattern per unit
};

/// The noise-free half of an exposure: resample the scene onto the
/// sensor grid, apply the optics, the CFA channel response, exposure,
/// vignetting and the unit's PRNU pattern (counter-based normals keyed by
/// `config.unit_seed`, isp/noise.h). Returns the 1-channel
/// photosite signal (config.width x config.height, clipped at 0). It
/// depends only on the scene and the configuration, so a caller that
/// photographs one scene many times computes it once.
Image sensor_signal(const Image& scene_linear, const SensorConfig& config);

/// The per-shot half of an exposure: shot noise, read noise, black level
/// and ADC quantization of a sensor_signal map. The temporal noise is
/// keyed by one `rng.next_u64()` draw and is counter-based from there
/// (isp/noise.h): the same bits in every kernel tier, with no libm call.
RawImage sample_sensor(const Image& signal_map, const SensorConfig& config,
                       Pcg32& rng);

/// Expose a linear-light RGB scene (values in [0, ~1], same aspect as the
/// sensor) and produce a raw mosaic. `rng` drives the *temporal* noise
/// (shot + read); the PRNU pattern is fixed by `config.unit_seed` so two
/// shots from the same unit share it, as on a real phone. Exactly
/// sample_sensor(sensor_signal(scene_linear, config), config, rng).
RawImage expose_sensor(const Image& scene_linear, const SensorConfig& config,
                       Pcg32& rng);

/// Stable fingerprint of the sensor configuration (for run manifests).
std::uint64_t sensor_digest(const SensorConfig& config);

}  // namespace edgestab
