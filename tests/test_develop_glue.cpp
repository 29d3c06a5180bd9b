// Develop-glue reference tests: the layout steps between the ISP, the
// codecs and the model — the u8/float conversions, the one-pass model
// input, the saturation stage, run_isp's unclamped tail and the avx2
// tone-curve cache — against the per-pixel loops and fresh LUT builds
// they replaced, bit for bit. The asan_smoke ctest reruns this binary
// under AddressSanitizer + UBSan, since the fast forms index raw
// pointers where the references went through bounds-checked accessors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "device/fleets.h"
#include "image/image.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "isp/stages.h"
#include "tensor/backend.h"
#include "tensor/kernels_avx2.h"
#include "util/rng.h"

namespace edgestab {
namespace {

void expect_bit_equal(const Image& got, const Image& want,
                      const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        want.size() * sizeof(float)),
            0)
      << what;
}

// The per-pixel reference loops the plane-major conversions must match
// bit for bit: the same per-value expressions walked through at().
ImageU8 reference_to_u8(const Image& img) {
  ImageU8 out(img.width(), img.height(), img.channels());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      for (int c = 0; c < img.channels(); ++c) {
        float v = std::clamp(img.at(x, y, c), 0.0f, 1.0f);
        out.at(x, y, c) = static_cast<std::uint8_t>(v * 255.0f + 0.5f);
      }
  return out;
}

Image reference_to_float(const ImageU8& img) {
  Image out(img.width(), img.height(), img.channels());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      for (int c = 0; c < img.channels(); ++c)
        out.at(x, y, c) = static_cast<float>(img.at(x, y, c)) / 255.0f;
  return out;
}

TEST(DevelopGlue, ConversionsMatchPerPixelReferenceBitForBit) {
  Pcg32 rng(22);
  for (int channels : {1, 3, 4})
    for (const auto& [w, h] : {std::pair{64, 64}, {63, 47}, {1, 1}}) {
      const std::string what = std::to_string(w) + "x" + std::to_string(h) +
                               "x" + std::to_string(channels);
      // Out-of-range values, plus every exact half step k/510 (and its
      // neighbours) where round-half-up is decided by the last ulp.
      Image img(w, h, channels);
      std::span<float> v = img.data();
      for (std::size_t i = 0; i < v.size(); ++i) {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            v[i] = static_cast<float>(rng.uniform(-0.5, 1.5));
            break;
          case 1: v[i] = static_cast<float>(i % 511) / 510.0f; break;
          case 2:
            v[i] = std::nextafter(static_cast<float>(i % 511) / 510.0f,
                                  rng.bernoulli(0.5) ? 2.0f : -1.0f);
            break;
          default: v[i] = static_cast<float>(rng.uniform()); break;
        }
      }
      const ImageU8 u8 = to_u8(img);
      EXPECT_EQ(u8, reference_to_u8(img)) << what;

      ImageU8 bytes(w, h, channels);
      for (std::uint8_t& b : bytes.data())
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      bytes.data()[0] = 255;
      expect_bit_equal(to_float(bytes), reference_to_float(bytes), what);
    }
}

// The reference model input: expand to floats pixel by pixel, area-resize
// with one box sum per output in (row, column) order, then normalize
// through at4 — the per-element path the one-pass conversion replaces.
Tensor reference_input(const Image& src, int size) {
  Image small(size, size, 3);
  if (src.width() == size && src.height() == size) {
    small = src;
  } else {
    float sx_scale = static_cast<float>(src.width()) / size;
    float sy_scale = static_cast<float>(src.height()) / size;
    for (int y = 0; y < size; ++y) {
      int y0 = static_cast<int>(y * sy_scale);
      int y1 = std::max(y0 + 1, static_cast<int>((y + 1) * sy_scale));
      y1 = std::min(y1, src.height());
      for (int x = 0; x < size; ++x) {
        int x0 = static_cast<int>(x * sx_scale);
        int x1 = std::max(x0 + 1, static_cast<int>((x + 1) * sx_scale));
        x1 = std::min(x1, src.width());
        float inv = 1.0f / static_cast<float>((x1 - x0) * (y1 - y0));
        for (int c = 0; c < 3; ++c) {
          float sum = 0.0f;
          for (int yy = y0; yy < y1; ++yy)
            for (int xx = x0; xx < x1; ++xx) sum += src.at(xx, yy, c);
          small.at(x, y, c) = sum * inv;
        }
      }
    }
  }
  Tensor out({1, 3, size, size});
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < size; ++y)
      for (int x = 0; x < size; ++x)
        out.at4(0, c, y, x) = small.at(x, y, c) * 2.0f - 1.0f;
  return out;
}

void expect_tensor_bit_equal(const Tensor& got, const Tensor& want,
                             const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(), want.numel() * sizeof(float)),
            0)
      << what;
}

TEST(DevelopGlue, ModelInputMatchesPerElementReferenceBitForBit) {
  Pcg32 rng(31);
  for (const auto& [w, h, size] :
       {std::tuple{64, 64, 32}, {48, 40, 32}, {32, 32, 32}, {5, 7, 11}}) {
    const std::string what = std::to_string(w) + "x" + std::to_string(h) +
                             " -> " + std::to_string(size);
    ImageU8 decoded(w, h, 3);
    for (std::uint8_t& b : decoded.data())
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    Image expanded(w, h, 3);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        for (int c = 0; c < 3; ++c)
          expanded.at(x, y, c) =
              static_cast<float>(decoded.at(x, y, c)) / 255.0f;
    expect_tensor_bit_equal(capture_to_input(decoded, size),
                            reference_input(expanded, size), what);

    // Display-referred floats, including values outside [0, 1].
    Image img(w, h, 3);
    for (float& v : img.data()) v = static_cast<float>(rng.uniform(-0.2, 1.2));
    expect_tensor_bit_equal(image_to_input(img, size),
                            reference_input(img, size), what + " (float)");
  }
}

// The per-pixel reference saturate walks through at(), as the stage did
// before it went plane-major.
void reference_saturate(Image& rgb, float factor) {
  if (factor == 1.0f) return;
  for (int y = 0; y < rgb.height(); ++y)
    for (int x = 0; x < rgb.width(); ++x) {
      float r = rgb.at(x, y, 0);
      float g = rgb.at(x, y, 1);
      float b = rgb.at(x, y, 2);
      float luma = 0.299f * r + 0.587f * g + 0.114f * b;
      rgb.at(x, y, 0) = std::clamp(luma + (r - luma) * factor, 0.0f, 1.0f);
      rgb.at(x, y, 1) = std::clamp(luma + (g - luma) * factor, 0.0f, 1.0f);
      rgb.at(x, y, 2) = std::clamp(luma + (b - luma) * factor, 0.0f, 1.0f);
    }
}

TEST(DevelopGlue, SaturateMatchesPerPixelReferenceBitForBit) {
  Pcg32 rng(29);
  for (const auto& [w, h] : {std::pair{64, 64}, {63, 47}, {1, 1}}) {
    Image img(w, h, 3);
    for (float& v : img.data()) v = static_cast<float>(rng.uniform(-0.3, 1.3));
    for (float factor : {0.0f, 0.8f, 1.0f, 1.17f}) {
      Image got = img;
      saturate(got, factor);
      Image want = img;
      reference_saturate(want, factor);
      expect_bit_equal(got, want,
                       std::to_string(w) + "x" + std::to_string(h) + " @ " +
                           std::to_string(factor));
    }
  }
}

TEST(DevelopGlue, ToneMapStaysInUnitRange) {
  // run_isp adds no clamp after the identity saturation: tone_map leaves
  // every value in [0, 1] in both float tiers (sharpen_unsharp either
  // returns early or clamps). Inputs: a grid over [-1, 2], both zeros,
  // the range ends and their neighbours, and every avx2 knot position
  // (i/1023)^2 with its neighbours; curves: every phone of the
  // end-to-end fleet at divergence 0 and 1.
  std::vector<float> inputs = {0.0f, -0.0f, 1.0f, -1.0f, 2.0f,
                               std::nextafter(0.0f, -1.0f),
                               std::nextafter(1.0f, 2.0f),
                               std::nextafter(1.0f, 0.0f)};
  for (int i = 0; i <= 3000; ++i)
    inputs.push_back(-1.0f + 3.0f * static_cast<float>(i) / 3000.0f);
  for (int i = 0; i < 1024; ++i) {
    const float t = static_cast<float>(i) / 1023.0f;
    const float knot = t * t;
    inputs.insert(inputs.end(), {knot, std::nextafter(knot, -1.0f),
                                 std::nextafter(knot, 2.0f)});
  }
  Image img(static_cast<int>(inputs.size()), 1, 1);
  std::copy(inputs.begin(), inputs.end(), img.data().begin());
  std::vector<std::pair<float, float>> curves;
  for (float divergence : {0.0f, 1.0f})
    for (const PhoneProfile& phone : end_to_end_fleet(divergence))
      curves.emplace_back(phone.isp.gamma, phone.isp.s_curve);
  const BackendKind prev = active_backend();
  for (BackendKind tier : {BackendKind::kScalar, BackendKind::kAvx2}) {
    if (!backend_available(tier)) continue;
    set_active_backend(tier);
    for (const auto& [gamma, s_curve] : curves) {
      Image got = img;
      tone_map(got, gamma, s_curve);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const float v = got.data()[i];
        ASSERT_TRUE(v >= 0.0f && v <= 1.0f)
            << backend_name(tier) << " gamma " << gamma << " s_curve "
            << s_curve << ": " << inputs[i] << " -> " << v;
      }
    }
  }
  set_active_backend(prev);
}

TEST(DevelopGlue, RunIspMatchesStageByStageReferenceBitForBit) {
  // run_isp against the stages called one by one with a clamp after the
  // saturation stage, at the identity saturation (where that clamp is a
  // no-op, ToneMapStaysInUnitRange) and away from it (where saturate
  // itself clamps), in both float tiers.
  SensorConfig cfg;
  cfg.width = 40;
  cfg.height = 36;
  Pcg32 rng(27);
  Image scene(cfg.width, cfg.height, 3);
  for (float& v : scene.data()) v = static_cast<float>(rng.uniform());
  Pcg32 shot_rng(6, 6);
  const RawImage raw = expose_sensor(scene, cfg, shot_rng);
  const BackendKind prev = active_backend();
  for (BackendKind tier : {BackendKind::kScalar, BackendKind::kAvx2}) {
    if (!backend_available(tier)) continue;
    set_active_backend(tier);
    for (float saturation : {1.0f, 0.8f, 1.17f}) {
      IspConfig config;
      config.ccm = {1.3f, -0.2f, -0.1f, -0.15f, 1.25f, -0.1f,
                    -0.05f, -0.3f, 1.35f};
      config.saturation = saturation;
      RawImage work = raw;
      black_level_subtract(work);
      Image want = demosaic(work, config.demosaic_kind);
      white_balance_preset(want, config.wb_gains);
      color_correct(want, config.ccm);
      denoise_box(want, config.denoise_radius, config.denoise_strength);
      tone_map(want, config.gamma, config.s_curve);
      sharpen_unsharp(want, config.sharpen_radius, config.sharpen_amount);
      reference_saturate(want, config.saturation);
      want.clamp();
      expect_bit_equal(run_isp(raw, config), want,
                       std::string(backend_name(tier)) + " saturation " +
                           std::to_string(saturation));
    }
  }
  set_active_backend(prev);
}

// The avx2 tone curve: a 1024-knot LUT uniform in sqrt(x), each knot built
// with the scalar expression, applied by the vector LUT kernel.
void reference_tone_map_avx2(Image& rgb, float gamma, float s_curve) {
  constexpr int kKnots = 1024;
  std::vector<float> lut(kKnots + 1);
  const float inv_gamma = 1.0f / gamma;
  for (int i = 0; i < kKnots; ++i) {
    const float t = static_cast<float>(i) / (kKnots - 1);
    float g = std::pow(t * t, inv_gamma);
    if (s_curve != 0.0f) {
      float s = g * g * (3.0f - 2.0f * g);
      g = g + (s - g) * s_curve;
    }
    lut[static_cast<std::size_t>(i)] = std::clamp(g, 0.0f, 1.0f);
  }
  lut[kKnots] = lut[kKnots - 1];
  avx2::lut_map_sqrt_f32(rgb.data().data(), rgb.data().size(), lut.data(),
                         kKnots);
}

TEST(DevelopGlue, ToneCurveCacheMatchesFreshLutBitForBit) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  const BackendKind prev = active_backend();
  set_active_backend(BackendKind::kAvx2);
  Pcg32 rng(33);
  Image img(37, 29, 3);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform(-0.1, 1.1));
  // 24 curves, more than the cache holds: every pass over them evicts,
  // and the interleaved revisits bring evicted curves back. Curves that
  // differ only in one field (or only in the sign of a zero s-curve)
  // must never share an entry.
  std::vector<std::pair<float, float>> curves;
  for (int i = 0; i < 12; ++i) {
    const float gamma = 1.6f + 0.1f * static_cast<float>(i);
    curves.emplace_back(gamma, 0.05f * static_cast<float>(i % 5));
    curves.emplace_back(gamma, 0.05f * static_cast<float>(i % 5) + 0.01f);
  }
  curves.emplace_back(2.2f, 0.0f);
  curves.emplace_back(2.2f, -0.0f);
  for (int round = 0; round < 6; ++round) {
    for (std::size_t k = 0; k < curves.size(); ++k) {
      const std::size_t pick =
          round % 2 == 0 ? k : rng.uniform_int(
                                   static_cast<std::uint32_t>(curves.size()));
      const auto [gamma, s_curve] = curves[pick];
      Image got = img;
      tone_map(got, gamma, s_curve);
      Image want = img;
      reference_tone_map_avx2(want, gamma, s_curve);
      expect_bit_equal(got, want,
                       "round " + std::to_string(round) + " curve " +
                           std::to_string(pick));
    }
  }
  set_active_backend(prev);
}

}  // namespace
}  // namespace edgestab
