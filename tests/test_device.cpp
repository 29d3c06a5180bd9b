// Device layer tests: fleet presets (Table 1 / Table 5 structure),
// capture pipeline determinism and output structure, OS-decoder wiring,
// and the compute-backend matmul divergence property.
#include <gtest/gtest.h>

#include "device/capture.h"
#include "device/fleets.h"
#include "image/metrics.h"
#include "nn/mobilenet.h"
#include "util/md5.h"
#include "util/rng.h"

namespace edgestab {
namespace {

Image test_emission() {
  Image img(96, 96, 3);
  Pcg32 rng(31);
  for (float& v : img.data())
    v = static_cast<float>(rng.uniform(0.05, 0.9));
  return img;
}

TEST(Fleets, EndToEndMatchesPaperTable1) {
  auto fleet = end_to_end_fleet();
  ASSERT_EQ(fleet.size(), 5u);
  EXPECT_EQ(fleet[0].name, "Samsung Galaxy S10");
  EXPECT_EQ(fleet[0].model_code, "SM-G973U1");
  EXPECT_EQ(fleet[4].name, "iPhone XR");
  EXPECT_EQ(fleet[4].model_code, "A1984");
  // iPhone stores HEIF, the Androids JPEG (§5).
  EXPECT_EQ(fleet[4].storage_format, ImageFormat::kHeifLike);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(fleet[static_cast<std::size_t>(i)].storage_format,
              ImageFormat::kJpegLike);
  // Exactly the Samsung and iPhone analogues support raw (§9.2).
  int raw_capable = 0;
  for (const auto& p : fleet) raw_capable += p.supports_raw ? 1 : 0;
  EXPECT_EQ(raw_capable, 2);
  EXPECT_TRUE(fleet[0].supports_raw);
  EXPECT_TRUE(fleet[4].supports_raw);
}

TEST(Fleets, DivergenceZeroCollapsesPipelines) {
  auto fleet = end_to_end_fleet(0.0f);
  for (const auto& p : fleet) {
    EXPECT_FLOAT_EQ(p.sensor.exposure, 1.0f) << p.name;
    EXPECT_FLOAT_EQ(p.isp.wb_gains[0], 1.0f) << p.name;
    EXPECT_FLOAT_EQ(p.mount_dx, 0.0f) << p.name;
  }
}

TEST(Fleets, DivergenceScalesMonotonically) {
  auto lo = end_to_end_fleet(0.5f);
  auto hi = end_to_end_fleet(2.0f);
  // The HTC analogue's CCM moves further from identity at higher d.
  float lo_dev = std::abs(lo[2].isp.ccm[0] - 1.0f);
  float hi_dev = std::abs(hi[2].isp.ccm[0] - 1.0f);
  EXPECT_GT(hi_dev, lo_dev);
  EXPECT_THROW(end_to_end_fleet(-0.1f), CheckError);
  EXPECT_THROW(end_to_end_fleet(5.0f), CheckError);
}

TEST(Fleets, FirebaseMatchesPaperTable5) {
  auto fleet = firebase_fleet();
  ASSERT_EQ(fleet.size(), 5u);
  EXPECT_EQ(fleet[1].name, "Huawei Mate RS");
  EXPECT_EQ(fleet[1].backend.soc_name, "HiSilicon Kirin 970");
  // Exactly Huawei and Xiaomi carry the variant decoder (§7).
  JpegDecodeOptions standard;
  EXPECT_TRUE(fleet[0].os_decoder == standard);
  EXPECT_FALSE(fleet[1].os_decoder == standard);
  EXPECT_TRUE(fleet[2].os_decoder == standard);
  EXPECT_TRUE(fleet[3].os_decoder == standard);
  EXPECT_FALSE(fleet[4].os_decoder == standard);
  EXPECT_TRUE(fleet[1].os_decoder == fleet[4].os_decoder);
}

TEST(Fleets, FindPhone) {
  auto fleet = end_to_end_fleet();
  EXPECT_EQ(find_phone(fleet, "Motorola Moto G5").model_code, "XT1670");
  EXPECT_THROW(find_phone(fleet, "Nokia 3310"), CheckError);
}

TEST(Capture, ProducesDecodableFile) {
  auto fleet = end_to_end_fleet();
  Image emission = test_emission();
  for (const auto& phone : fleet) {
    Pcg32 rng(1, phone.noise_stream);
    Capture c = take_photo(phone, emission, rng);
    EXPECT_FALSE(c.file.empty()) << phone.name;
    EXPECT_EQ(c.format, phone.storage_format);
    ImageU8 decoded = decode_capture(c, JpegDecodeOptions{});
    EXPECT_EQ(decoded.width(), phone.sensor.width);
    EXPECT_EQ(decoded.height(), phone.sensor.height);
    EXPECT_EQ(c.raw.has_value(), phone.supports_raw) << phone.name;
  }
}

TEST(Capture, DeterministicGivenRngState) {
  auto fleet = end_to_end_fleet();
  Image emission = test_emission();
  Pcg32 rng1(9, 4), rng2(9, 4);
  Capture a = take_photo(fleet[0], emission, rng1);
  Capture b = take_photo(fleet[0], emission, rng2);
  EXPECT_EQ(a.file, b.file);
}

TEST(Capture, ConsecutiveShotsNearlyIdentical) {
  auto fleet = end_to_end_fleet();
  Image emission = test_emission();
  Pcg32 rng(9, 4);
  Capture a = take_photo(fleet[0], emission, rng);
  Capture b = take_photo(fleet[0], emission, rng);
  EXPECT_NE(a.file, b.file);  // temporal noise differs...
  Image ia = to_float(decode_capture(a, JpegDecodeOptions{}));
  Image ib = to_float(decode_capture(b, JpegDecodeOptions{}));
  EXPECT_GT(psnr(ia, ib), 30.0);  // ...but the photos look identical
}

TEST(Capture, DifferentPhonesRenderDifferently) {
  auto fleet = end_to_end_fleet();
  Image emission = test_emission();
  Pcg32 rng_a(9, 1), rng_b(9, 2);
  Image samsung = to_float(decode_capture(
      take_photo(fleet[0], emission, rng_a), JpegDecodeOptions{}));
  Image htc = to_float(decode_capture(
      take_photo(fleet[2], emission, rng_b), JpegDecodeOptions{}));
  // Renditions differ visibly more than two shots of one phone do.
  EXPECT_GT(diff_fraction(samsung, htc, 0.05f), 0.10);
}

TEST(Capture, OsDecoderChangesPixelsNotFile) {
  auto fleet = end_to_end_fleet();
  Image emission = test_emission();
  Pcg32 rng(9, 1);
  Capture c = take_photo(fleet[0], emission, rng);  // JPEG phone
  JpegDecodeOptions variant;
  variant.upsample = JpegDecodeOptions::Upsample::kBilinear;
  variant.fixed_point_idct = true;
  ImageU8 standard = decode_capture(c, JpegDecodeOptions{});
  ImageU8 varied = decode_capture(c, variant);
  EXPECT_FALSE(standard == varied);
  EXPECT_NE(Md5::hex(standard.data()), Md5::hex(varied.data()));
}

TEST(Capture, DevelopRawIsDeterministic) {
  auto fleet = end_to_end_fleet();
  Image emission = test_emission();
  Pcg32 rng(9, 1);
  Capture c = take_photo(fleet[0], emission, rng);
  ASSERT_TRUE(c.raw.has_value());
  IspConfig isp;
  Image a = develop_raw(*c.raw, isp);
  Image b = develop_raw(*c.raw, isp);
  EXPECT_EQ(to_u8(a), to_u8(b));
}

TEST(Backend, BlockedMatmulChangesLogitsSlightly) {
  MobileNetConfig cfg;
  Model model = build_mini_mobilenet_v2(cfg);
  Pcg32 rng(41);
  model.init(rng);
  Tensor input({2, 3, 32, 32});
  for (float& v : input.data()) v = static_cast<float>(rng.normal());

  model.set_matmul_mode(MatmulMode::kStandard);
  Tensor a = model.infer(input);
  model.set_matmul_mode(MatmulMode::kBlocked);
  Tensor b = model.infer(input);

  bool any_diff = false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-3f);  // sub-ULP-ish divergence only
    if (a[i] != b[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);  // but they are NOT bit-identical (§7's premise)
}

}  // namespace
}  // namespace edgestab
