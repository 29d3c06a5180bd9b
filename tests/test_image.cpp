// Image library tests: storage/indexing, u8 conversions, color-space
// round trips, resizing (including property sweeps over filters), affine
// warps, drawing invariants, and comparison metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "device/fleets.h"
#include "image/color.h"
#include "image/draw.h"
#include "image/image.h"
#include "image/metrics.h"
#include "image/resize.h"
#include "util/rng.h"

namespace edgestab {
namespace {

Image random_image(int w, int h, int c, Pcg32& rng) {
  Image img(w, h, c);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform());
  return img;
}

TEST(Image, PlanarLayout) {
  Image img(4, 3, 2);
  img.at(1, 2, 1) = 0.5f;
  // plane 1 offset = 12, row 2 offset = 8, x = 1.
  EXPECT_FLOAT_EQ(img.data()[12 + 8 + 1], 0.5f);
  EXPECT_EQ(img.plane(1).size(), 12u);
}

TEST(Image, ClampedSampling) {
  Image img(2, 2, 1);
  img.at(0, 0, 0) = 1.0f;
  EXPECT_FLOAT_EQ(img.at_clamped(-5, -5, 0), 1.0f);
  EXPECT_FLOAT_EQ(img.at_clamped(7, 0, 0), img.at(1, 0, 0));
}

TEST(Image, BilinearSampleInterpolates) {
  Image img(2, 1, 1);
  img.at(0, 0, 0) = 0.0f;
  img.at(1, 0, 0) = 1.0f;
  EXPECT_NEAR(img.sample_bilinear(0.5f, 0.0f, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(img.sample_bilinear(0.25f, 0.0f, 0), 0.25f, 1e-6f);
}

TEST(Image, U8RoundTripExact) {
  Pcg32 rng(1);
  Image img = random_image(8, 8, 3, rng);
  ImageU8 u8 = to_u8(img);
  Image back = to_float(u8);
  // Quantization error bounded by half a step.
  for (std::size_t i = 0; i < img.data().size(); ++i)
    EXPECT_NEAR(back.data()[i], img.data()[i], 0.5f / 255.0f + 1e-6f);
  // u8 -> float -> u8 is lossless.
  EXPECT_EQ(to_u8(back), u8);
}

TEST(Image, ArithmeticHelpers) {
  Image a(2, 2, 1, 0.5f);
  Image b(2, 2, 1, 1.0f);
  a.add_scaled(b, 0.25f);
  EXPECT_FLOAT_EQ(a.at(0, 0, 0), 0.75f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1, 0), 1.5f);
  a.clamp(0.0f, 1.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1, 0), 1.0f);
}

TEST(Color, YCbCrRoundTrip) {
  Pcg32 rng(2);
  for (int i = 0; i < 200; ++i) {
    float r = static_cast<float>(rng.uniform());
    float g = static_cast<float>(rng.uniform());
    float b = static_cast<float>(rng.uniform());
    float y, cb, cr, r2, g2, b2;
    rgb_to_ycbcr(r, g, b, y, cb, cr);
    ycbcr_to_rgb(y, cb, cr, r2, g2, b2);
    EXPECT_NEAR(r, r2, 5e-3f);
    EXPECT_NEAR(g, g2, 5e-3f);
    EXPECT_NEAR(b, b2, 5e-3f);
  }
}

TEST(Color, GrayHasCenteredChroma) {
  float y, cb, cr;
  rgb_to_ycbcr(0.5f, 0.5f, 0.5f, y, cb, cr);
  EXPECT_NEAR(y, 0.5f, 1e-5f);
  EXPECT_NEAR(cb, 0.5f, 1e-5f);
  EXPECT_NEAR(cr, 0.5f, 1e-5f);
}

TEST(Color, HsvRoundTrip) {
  Pcg32 rng(3);
  for (int i = 0; i < 200; ++i) {
    float r = static_cast<float>(rng.uniform());
    float g = static_cast<float>(rng.uniform());
    float b = static_cast<float>(rng.uniform());
    float h, s, v, r2, g2, b2;
    rgb_to_hsv(r, g, b, h, s, v);
    hsv_to_rgb(h, s, v, r2, g2, b2);
    EXPECT_NEAR(r, r2, 1e-4f);
    EXPECT_NEAR(g, g2, 1e-4f);
    EXPECT_NEAR(b, b2, 1e-4f);
  }
}

TEST(Color, HsvPrimaries) {
  float h, s, v;
  rgb_to_hsv(1.0f, 0.0f, 0.0f, h, s, v);
  EXPECT_NEAR(h, 0.0f, 1e-5f);
  EXPECT_NEAR(s, 1.0f, 1e-5f);
  EXPECT_NEAR(v, 1.0f, 1e-5f);
  rgb_to_hsv(0.0f, 1.0f, 0.0f, h, s, v);
  EXPECT_NEAR(h, 1.0f / 3.0f, 1e-5f);
}

TEST(Color, SrgbRoundTripAndEndpoints) {
  EXPECT_NEAR(srgb_encode(0.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(srgb_encode(1.0f), 1.0f, 1e-6f);
  Pcg32 rng(4);
  for (int i = 0; i < 100; ++i) {
    float v = static_cast<float>(rng.uniform());
    EXPECT_NEAR(srgb_decode(srgb_encode(v)), v, 1e-5f);
  }
}

TEST(Color, AdjustHsvIdentityIsNoOp) {
  Pcg32 rng(5);
  Image img = random_image(6, 6, 3, rng);
  Image copy = img;
  adjust_hsv(copy, 0.0f, 1.0f, 1.0f);
  for (std::size_t i = 0; i < img.data().size(); ++i)
    EXPECT_NEAR(copy.data()[i], img.data()[i], 1e-4f);
}

TEST(Color, ContrastBrightness) {
  Image img(1, 1, 3, 0.5f);
  adjust_contrast_brightness(img, 2.0f, 0.1f);
  EXPECT_NEAR(img.at(0, 0, 0), 0.6f, 1e-6f);
  Image img2(1, 1, 3, 0.75f);
  adjust_contrast_brightness(img2, 2.0f, 0.0f);
  EXPECT_NEAR(img2.at(0, 0, 0), 1.0f, 1e-6f);  // clamped
}

TEST(Color, ColorMatrixIdentity) {
  Pcg32 rng(6);
  Image img = random_image(4, 4, 3, rng);
  Image copy = img;
  apply_color_matrix(copy, {1, 0, 0, 0, 1, 0, 0, 0, 1});
  for (std::size_t i = 0; i < img.data().size(); ++i)
    EXPECT_FLOAT_EQ(copy.data()[i], img.data()[i]);
}

class ResizeFilterTest : public ::testing::TestWithParam<ResizeFilter> {};

TEST_P(ResizeFilterTest, PreservesConstantImages) {
  Image img(9, 7, 3, 0.42f);
  Image out = resize(img, 5, 4, GetParam());
  for (float v : out.data()) EXPECT_NEAR(v, 0.42f, 1e-5f);
}

TEST_P(ResizeFilterTest, IdentityWhenSameSize) {
  Pcg32 rng(7);
  Image img = random_image(6, 6, 3, rng);
  Image out = resize(img, 6, 6, GetParam());
  for (std::size_t i = 0; i < img.data().size(); ++i)
    EXPECT_FLOAT_EQ(out.data()[i], img.data()[i]);
}

TEST_P(ResizeFilterTest, OutputInInputRangeForUpscale) {
  Pcg32 rng(8);
  Image img = random_image(4, 4, 1, rng);
  Image out = resize(img, 13, 11, GetParam());
  for (float v : out.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFilters, ResizeFilterTest,
                         ::testing::Values(ResizeFilter::kBilinear,
                                           ResizeFilter::kArea));

TEST(Resize, AreaDownscaleAverages) {
  Image img(4, 4, 1);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      img.at(x, y, 0) = static_cast<float>(y * 4 + x);
  Image out = resize(img, 2, 2, ResizeFilter::kArea);
  EXPECT_NEAR(out.at(0, 0, 0), (0 + 1 + 4 + 5) / 4.0f, 1e-5f);
  EXPECT_NEAR(out.at(1, 1, 0), (10 + 11 + 14 + 15) / 4.0f, 1e-5f);
}

void expect_bit_equal(const Image& got, const Image& want,
                      const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        want.size() * sizeof(float)),
            0)
      << what;
}

struct ResizeCase {
  int w, h, out_w, out_h;
};

std::string case_name(const ResizeCase& rc) {
  return std::to_string(rc.w) + "x" + std::to_string(rc.h) + " -> " +
         std::to_string(rc.out_w) + "x" + std::to_string(rc.out_h);
}

TEST(Resize, BilinearMatchesPerSampleReferenceBitForBit) {
  Pcg32 rng(14);
  for (const ResizeCase& rc : {ResizeCase{96, 96, 192, 192},
                               ResizeCase{48, 48, 96, 96},
                               ResizeCase{9, 7, 5, 4},
                               ResizeCase{4, 4, 13, 11}}) {
    const Image src = random_image(rc.w, rc.h, 3, rng);
    const Image got = resize(src, rc.out_w, rc.out_h, ResizeFilter::kBilinear);
    Image want(rc.out_w, rc.out_h, 3);
    float sx_scale = static_cast<float>(rc.w) / rc.out_w;
    float sy_scale = static_cast<float>(rc.h) / rc.out_h;
    for (int y = 0; y < rc.out_h; ++y) {
      float sy = (y + 0.5f) * sy_scale - 0.5f;
      for (int x = 0; x < rc.out_w; ++x) {
        float sx = (x + 0.5f) * sx_scale - 0.5f;
        for (int c = 0; c < 3; ++c)
          want.at(x, y, c) = src.sample_bilinear(sx, sy, c);
      }
    }
    expect_bit_equal(got, want, case_name(rc));
  }
}

TEST(Resize, AreaMatchesPerOutputBoxSumBitForBit) {
  Pcg32 rng(15);
  for (const ResizeCase& rc : {ResizeCase{192, 192, 64, 64},
                               ResizeCase{96, 96, 64, 64},
                               ResizeCase{64, 64, 32, 32},
                               ResizeCase{192, 192, 48, 48},
                               ResizeCase{5, 5, 13, 11}}) {
    const Image src = random_image(rc.w, rc.h, 3, rng);
    const Image got = resize(src, rc.out_w, rc.out_h, ResizeFilter::kArea);
    // One box sum per output sample, rows outer and columns inner.
    Image want(rc.out_w, rc.out_h, 3);
    float sx_scale = static_cast<float>(rc.w) / rc.out_w;
    float sy_scale = static_cast<float>(rc.h) / rc.out_h;
    for (int y = 0; y < rc.out_h; ++y) {
      int y0 = static_cast<int>(y * sy_scale);
      int y1 = std::max(y0 + 1, static_cast<int>((y + 1) * sy_scale));
      y1 = std::min(y1, rc.h);
      for (int x = 0; x < rc.out_w; ++x) {
        int x0 = static_cast<int>(x * sx_scale);
        int x1 = std::max(x0 + 1, static_cast<int>((x + 1) * sx_scale));
        x1 = std::min(x1, rc.w);
        float inv = 1.0f / static_cast<float>((x1 - x0) * (y1 - y0));
        for (int c = 0; c < 3; ++c) {
          float sum = 0.0f;
          for (int yy = y0; yy < y1; ++yy)
            for (int xx = x0; xx < x1; ++xx) sum += src.at(xx, yy, c);
          want.at(x, y, c) = sum * inv;
        }
      }
    }
    expect_bit_equal(got, want, case_name(rc));
  }
}

TEST(Affine, IdentityWarpIsNearNoOp) {
  Pcg32 rng(11);
  Image img = random_image(8, 8, 3, rng);
  Image out = warp_affine(img, Affine::identity(), 8, 8);
  for (int y = 1; y < 7; ++y)
    for (int x = 1; x < 7; ++x)
      for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(out.at(x, y, c), img.at(x, y, c), 1e-5f);
}

TEST(Affine, TranslationMovesContent) {
  Image img(8, 8, 1);
  img.at(3, 3, 0) = 1.0f;
  // Output pixel (5,3) should sample source (3,3).
  Image out = warp_affine(img, Affine::translate(-2, 0), 8, 8);
  EXPECT_NEAR(out.at(5, 3, 0), 1.0f, 1e-5f);
}

TEST(Affine, ComposeMatchesSequentialApplication) {
  Affine a = Affine::rotate_about(0.3f, 4.0f, 4.0f);
  Affine b = Affine::scale_about(1.2f, 0.8f, 2.0f, 2.0f);
  Affine ab = a.compose(b);
  float x1, y1, x2, y2;
  b.apply(1.5f, 2.5f, x1, y1);
  a.apply(x1, y1, x1, y1);
  ab.apply(1.5f, 2.5f, x2, y2);
  EXPECT_NEAR(x1, x2, 1e-4f);
  EXPECT_NEAR(y1, y2, 1e-4f);
}

TEST(Affine, WarpMatchesPerChannelBilinearBitForBit) {
  Pcg32 rng(12);
  const Image src = random_image(40, 30, 3, rng);
  const float cx = 20.0f;
  const float cy = 15.0f;
  std::vector<Affine> warps;
  // The fleet's mounts, built the way the capture path frames a scene.
  for (const PhoneProfile& phone : end_to_end_fleet())
    warps.push_back(Affine::rotate_about(phone.mount_tilt, cx, cy)
                        .compose(Affine::translate(phone.mount_dx,
                                                   phone.mount_dy)));
  // Affines that sample far outside the source on every side.
  warps.push_back(Affine::translate(-100.0f, 57.5f));
  warps.push_back(Affine::scale_about(3.5f, -2.25f, cx, cy));
  warps.push_back(Affine::rotate_about(2.4f, -30.0f, 80.0f));
  for (std::size_t i = 0; i < warps.size(); ++i) {
    for (int out_w : {40, 23}) {
      const int out_h = out_w == 40 ? 30 : 41;
      const Image got = warp_affine(src, warps[i], out_w, out_h);
      Image want(out_w, out_h, 3);
      for (int y = 0; y < out_h; ++y)
        for (int x = 0; x < out_w; ++x) {
          float sx, sy;
          warps[i].apply(static_cast<float>(x), static_cast<float>(y), sx,
                         sy);
          for (int c = 0; c < 3; ++c)
            want.at(x, y, c) = src.sample_bilinear(sx, sy, c);
        }
      ASSERT_TRUE(got.same_shape(want));
      EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            want.size() * sizeof(float)),
                0)
          << "warp " << i << " at " << out_w << "x" << out_h;
    }
  }
}

TEST(Affine, RotationPreservesCenter) {
  Affine r = Affine::rotate_about(1.1f, 5.0f, 6.0f);
  float x, y;
  r.apply(5.0f, 6.0f, x, y);
  EXPECT_NEAR(x, 5.0f, 1e-4f);
  EXPECT_NEAR(y, 6.0f, 1e-4f);
}

TEST(Draw, FillAndGradient) {
  Image img(4, 4, 3);
  fill(img, {0.2f, 0.4f, 0.6f});
  EXPECT_FLOAT_EQ(img.at(2, 2, 1), 0.4f);
  fill_vertical_gradient(img, {0, 0, 0}, {1, 1, 1});
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(0, 3, 0), 1.0f);
}

TEST(Draw, CircleCoverage) {
  Image img(20, 20, 3);
  fill(img, {0, 0, 0});
  paint_sdf(img, SdfCircle{10, 10, 5}, {1, 1, 1});
  EXPECT_NEAR(img.at(10, 10, 0), 1.0f, 1e-5f);   // center inside
  EXPECT_NEAR(img.at(1, 1, 0), 0.0f, 1e-5f);     // corner outside
}

TEST(Draw, SdfSigns) {
  SdfCircle c{0, 0, 2};
  EXPECT_LT(c(0, 0), 0.0f);
  EXPECT_GT(c(5, 0), 0.0f);
  SdfRoundRect r{0, 0, 4, 3, 1};
  EXPECT_LT(r(0, 0), 0.0f);
  EXPECT_GT(r(10, 0), 0.0f);
  SdfEllipse e{0, 0, 4, 2};
  EXPECT_LT(e(0, 0), 0.0f);
  EXPECT_GT(e(0, 5), 0.0f);
  SdfCapsule cap{0, 0, 4, 0, 1};
  EXPECT_LT(cap(2, 0), 0.0f);
  EXPECT_GT(cap(2, 3), 0.0f);
  SdfTrapezoid t{0, 0, 4, 1, 3};
  EXPECT_LT(t(0, 0), 0.0f);
  EXPECT_GT(t(5, 0), 0.0f);
}

TEST(Draw, ValueNoiseDeterministicAndBounded) {
  float a = value_noise(3.7f, 9.1f, 4.0f, 42);
  float b = value_noise(3.7f, 9.1f, 4.0f, 42);
  EXPECT_FLOAT_EQ(a, b);
  EXPECT_NE(a, value_noise(3.7f, 9.1f, 4.0f, 43));
  Pcg32 rng(12);
  for (int i = 0; i < 200; ++i) {
    float v = value_noise(static_cast<float>(rng.uniform(0, 100)),
                          static_cast<float>(rng.uniform(0, 100)), 7.0f, 7);
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Metrics, PsnrIdenticalIsInfinite) {
  Pcg32 rng(13);
  Image img = random_image(6, 6, 3, rng);
  EXPECT_TRUE(std::isinf(psnr(img, img)));
}

TEST(Metrics, PsnrKnownValue) {
  Image a(10, 10, 1, 0.0f);
  Image b(10, 10, 1, 0.1f);
  // MSE = 0.01 -> PSNR = 20 dB.
  EXPECT_NEAR(psnr(a, b), 20.0, 1e-6);
}

TEST(Metrics, DiffMaskAndFraction) {
  Image a(4, 4, 3, 0.5f);
  Image b = a;
  b.at(1, 1, 0) = 0.8f;  // above 5% threshold
  b.at(2, 2, 1) = 0.52f; // below threshold
  EXPECT_NEAR(diff_fraction(a, b, 0.05f), 1.0 / 16.0, 1e-9);
  Image mask = diff_mask(a, b, 0.05f);
  EXPECT_FLOAT_EQ(mask.at(1, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(2, 2, 0), 0.0f);
}

TEST(Metrics, ShapeMismatchThrows) {
  Image a(4, 4, 3);
  Image b(4, 5, 3);
  EXPECT_THROW(mse(a, b), CheckError);
}

TEST(Metrics, SsimIdenticalIsOne) {
  Pcg32 rng(17);
  Image img = random_image(32, 32, 3, rng);
  EXPECT_NEAR(ssim(img, img), 1.0, 1e-9);
}

TEST(Metrics, SsimOrdersDistortionSeverity) {
  Pcg32 rng(18);
  Image a = random_image(32, 32, 3, rng);
  Pcg32 noise_rng(19);
  Image mild = a;
  Image severe = a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto n = static_cast<float>(noise_rng.uniform() - 0.5);
    mild.data()[i] = std::clamp(a.data()[i] + 0.1f * n, 0.0f, 1.0f);
    severe.data()[i] = std::clamp(a.data()[i] + 0.8f * n, 0.0f, 1.0f);
  }
  double s_mild = ssim(a, mild);
  double s_severe = ssim(a, severe);
  EXPECT_LT(s_mild, 1.0);
  EXPECT_GT(s_mild, s_severe);
  EXPECT_GT(s_severe, 0.0);
}

TEST(Metrics, SsimForgivesUniformShiftMoreThanNoise) {
  // SSIM is a *structural* metric: a constant brightness offset keeps
  // structure intact and must score higher than same-energy noise.
  Pcg32 rng(20);
  Image a = random_image(32, 32, 1, rng);
  for (float& v : a.data()) v = 0.25f + 0.5f * v;  // keep shift in range
  Image shifted = a;
  for (float& v : shifted.data()) v += 0.1f;
  Pcg32 noise_rng(21);
  Image noisy = a;
  for (float& v : noisy.data())
    v += (noise_rng.uniform() < 0.5 ? -0.1f : 0.1f);
  EXPECT_NEAR(mse(a, shifted), mse(a, noisy), 1e-6);
  EXPECT_GT(ssim(a, shifted), ssim(a, noisy));
}

}  // namespace
}  // namespace edgestab
