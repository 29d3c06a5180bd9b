// Data layer tests: label space + aliases, scene renderer determinism and
// variety, viewpoint behaviour, screen simulation, dataset construction
// and normalization, and lab-rig structure.
#include <gtest/gtest.h>

#include <cstring>

#include "data/dataset.h"
#include "data/lab_rig.h"
#include "data/labels.h"
#include "data/render.h"
#include "data/screen.h"
#include "image/color.h"
#include "image/metrics.h"
#include "image/resize.h"
#include "util/rng.h"

namespace edgestab {
namespace {

TEST(Labels, NamesAndTargets) {
  EXPECT_EQ(kNumClasses, 12);
  EXPECT_EQ(class_name(kWaterBottle), "water_bottle");
  EXPECT_EQ(class_name(kBubble), "bubble");
  EXPECT_EQ(target_classes().size(), 5u);
  EXPECT_EQ(target_classes()[0], kWaterBottle);
  EXPECT_THROW(class_name(12), CheckError);
  EXPECT_THROW(class_name(-1), CheckError);
}

TEST(Labels, WineAliasAcceptedBothWays) {
  // §3.2: "wine bottle" and "red wine" overlap in ImageNet.
  EXPECT_TRUE(prediction_correct(kWineBottle, kWineBottle));
  EXPECT_TRUE(prediction_correct(kWineBottle, kRedWine));
  EXPECT_TRUE(prediction_correct(kRedWine, kWineBottle));
  EXPECT_FALSE(prediction_correct(kWineBottle, kBeerBottle));
  EXPECT_FALSE(prediction_correct(kWaterBottle, kBubble));
}

TEST(Render, DeterministicPerSpec) {
  SceneSpec spec;
  spec.class_id = kBackpack;
  spec.instance_seed = 5;
  Image a = render_scene(spec, 64);
  Image b = render_scene(spec, 64);
  EXPECT_EQ(to_u8(a), to_u8(b));
}

TEST(Render, InstancesVary) {
  SceneSpec a, b;
  a.class_id = b.class_id = kPurse;
  a.instance_seed = 1;
  b.instance_seed = 2;
  Image ia = render_scene(a, 64);
  Image ib = render_scene(b, 64);
  EXPECT_GT(diff_fraction(ia, ib, 0.05f), 0.1);
}

TEST(Render, AllClassesRenderInRange) {
  for (int cls = 0; cls < kNumClasses; ++cls) {
    SceneSpec spec;
    spec.class_id = cls;
    spec.instance_seed = 3;
    Image img = render_scene(spec, 64);
    EXPECT_EQ(img.width(), 64);
    EXPECT_EQ(img.channels(), 3);
    for (float v : img.data()) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(Render, ViewAngleShiftsObject) {
  SceneSpec left, right;
  left.class_id = right.class_id = kBeerBottle;
  left.instance_seed = right.instance_seed = 9;
  left.view_angle = -1.0f;
  right.view_angle = 1.0f;
  Image il = render_scene(left, 96);
  Image ir = render_scene(right, 96);
  // The same object viewed from different angles — clearly different
  // images.
  EXPECT_GT(diff_fraction(il, ir, 0.05f), 0.05);
  EXPECT_THROW(
      {
        SceneSpec bad = left;
        bad.view_angle = 2.0f;
        render_scene(bad, 96);
      },
      CheckError);
}

TEST(Screen, EmitsLinearLightAtScaledResolution) {
  Image srgb(32, 32, 3, 0.5f);
  ScreenConfig config;
  config.output_scale = 2;
  Image emission = display_on_screen(srgb, config);
  EXPECT_EQ(emission.width(), 64);
  // Mid-gray sRGB is ~0.214 linear; the screen adds black glow and the
  // subpixel grid modulates around that.
  double sum = 0.0;
  for (float v : emission.data()) sum += v;
  double mean = sum / static_cast<double>(emission.size());
  EXPECT_NEAR(mean, 0.23, 0.05);
}

TEST(Screen, BlackLevelLiftsShadows) {
  Image black(8, 8, 3, 0.0f);
  ScreenConfig config;
  config.pixel_grid = 0.0f;
  Image emission = display_on_screen(black, config);
  for (float v : emission.data()) EXPECT_GT(v, 0.0f);
}

TEST(Screen, MatchesPerPixelReferenceBitForBit) {
  Pcg32 rng(21);
  Image srgb(48, 40, 3);
  for (float& v : srgb.data()) v = static_cast<float>(rng.uniform());
  // Values outside [0,1] exercise srgb_decode's clamp.
  srgb.at(0, 0, 0) = -0.25f;
  srgb.at(1, 0, 1) = 1.5f;
  for (int scale : {1, 2}) {
    for (float pixel_grid : {0.05f, 0.0f}) {
      ScreenConfig config;
      config.output_scale = scale;
      config.pixel_grid = pixel_grid;
      config.backlight = 0.83f;
      config.black_level = 0.021f;
      const Image got = display_on_screen(srgb, config);
      // srgb_decode of the whole upsampled image, then the black level
      // and the backlight, white point and subpixel grid per pixel.
      Image up = scale == 1 ? srgb
                            : resize(srgb, srgb.width() * scale,
                                     srgb.height() * scale,
                                     ResizeFilter::kBilinear);
      Image want = srgb_decode(up);
      for (int y = 0; y < want.height(); ++y)
        for (int x = 0; x < want.width(); ++x)
          for (int c = 0; c < 3; ++c) {
            float grid = 1.0f;
            if (config.pixel_grid > 0.0f)
              grid = (x % 3 == c) ? 1.0f + config.pixel_grid
                                  : 1.0f - config.pixel_grid * 0.5f;
            float v = want.at(x, y, c);
            v = config.black_level + (1.0f - config.black_level) * v;
            v *= config.backlight *
                 config.white_point[static_cast<std::size_t>(c)] * grid;
            want.at(x, y, c) = v;
          }
      ASSERT_TRUE(got.same_shape(want));
      EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            want.size() * sizeof(float)),
                0)
          << "output_scale " << scale << ", pixel_grid " << pixel_grid;
    }
  }
}

TEST(Dataset, InputNormalizationRange) {
  Image img(48, 48, 3);
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 48; ++x)
      for (int c = 0; c < 3; ++c)
        img.at(x, y, c) = static_cast<float>(x) / 47.0f;
  Tensor input = image_to_input(img);
  EXPECT_EQ(input.dim(2), kModelInputSize);
  float mn = 1e9f, mx = -1e9f;
  for (float v : input.data()) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GE(mn, -1.0f);
  EXPECT_LE(mx, 1.0f);
  EXPECT_LT(mn, -0.8f);  // full range is exercised
  EXPECT_GT(mx, 0.8f);
}

TEST(Dataset, StackInputsShapeChecked) {
  Tensor a({1, 3, 8, 8}, 1.0f);
  Tensor b({1, 3, 8, 8}, 2.0f);
  Tensor stacked = stack_inputs({a, b});
  EXPECT_EQ(stacked.dim(0), 2);
  EXPECT_FLOAT_EQ(stacked.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(stacked.at4(1, 2, 7, 7), 2.0f);
  Tensor c({1, 3, 4, 4});
  EXPECT_THROW(stack_inputs({a, c}), CheckError);
}

TEST(Dataset, PretrainCoversAllClassesBalanced) {
  PretrainConfig config;
  config.per_class = 6;
  config.scene_size = 48;
  config.capture_probability = 0.0f;  // keep the test fast
  config.jpeg_probability = 0.0f;
  TensorDataset ds = make_pretrain_dataset(config);
  EXPECT_EQ(ds.size(), 6 * kNumClasses);
  std::vector<int> counts(kNumClasses, 0);
  for (int label : ds.labels) ++counts[static_cast<std::size_t>(label)];
  for (int c : counts) EXPECT_EQ(c, 6);
}

TEST(Dataset, ValidationDisjointFromTraining) {
  PretrainConfig config;
  config.per_class = 5;
  config.scene_size = 48;
  config.capture_probability = 0.0f;
  config.jpeg_probability = 0.0f;
  config.blur_probability = 0.0f;
  config.noise_sigma = 0.0f;
  TensorDataset train = make_pretrain_dataset(config);
  TensorDataset val = make_validation_dataset(config);
  EXPECT_GT(val.size(), 0);
  // No training sample equals any validation sample (disjoint instance
  // seeds produce different scenes).
  const std::size_t n = 3u * kModelInputSize * kModelInputSize;
  for (int i = 0; i < std::min(train.size(), 12); ++i)
    for (int j = 0; j < std::min(val.size(), 12); ++j) {
      bool equal = std::equal(train.images.raw() + i * n,
                              train.images.raw() + (i + 1) * n,
                              val.images.raw() + j * n);
      EXPECT_FALSE(equal) << i << "," << j;
    }
}

TEST(LabRig, StructureAndCoverage) {
  auto fleet = end_to_end_fleet();
  LabRigConfig config;
  config.objects_per_class = 2;
  LabRun run = run_lab_rig(fleet, config);
  // 5 classes x 2 objects x 5 angles x 5 phones.
  EXPECT_EQ(run.shots.size(), 5u * 2 * 5 * 5);
  EXPECT_EQ(run.object_class.size(), 10u);
  EXPECT_EQ(run.angle_count, 5);
  // Every (object, angle, phone) combination appears exactly once.
  std::set<std::tuple<int, int, int>> seen;
  for (const LabShot& shot : run.shots) {
    EXPECT_TRUE(seen.emplace(shot.object_index, shot.angle_index,
                             shot.phone_index)
                    .second);
    EXPECT_EQ(shot.class_id,
              run.object_class[static_cast<std::size_t>(
                  shot.object_index)]);
    EXPECT_FALSE(shot.capture.file.empty());
  }
}

TEST(LabRig, RepeatShotsShareStimulus) {
  auto fleet = end_to_end_fleet();
  LabRigConfig config;
  config.objects_per_class = 1;
  config.angles = {0.0f};
  config.shots_per_stimulus = 3;
  LabRun run = run_lab_rig(fleet, config);
  // 5 classes x 1 object x 1 angle x 5 phones x 3 shots.
  EXPECT_EQ(run.shots.size(), 5u * 5 * 3);
  for (std::size_t i = 0; i < run.shots.size(); i += 3) {
    EXPECT_EQ(run.shots[i].repeat, 0);
    EXPECT_EQ(run.shots[i + 1].repeat, 1);
    EXPECT_EQ(run.shots[i + 2].repeat, 2);
    // Same stimulus, different temporal noise -> different bytes.
    EXPECT_NE(run.shots[i].capture.file, run.shots[i + 1].capture.file);
  }
}

TEST(LabRig, DeterministicAcrossRuns) {
  auto fleet = end_to_end_fleet();
  LabRigConfig config;
  config.objects_per_class = 1;
  config.angles = {0.0f, 1.0f};
  LabRun a = run_lab_rig(fleet, config);
  LabRun b = run_lab_rig(fleet, config);
  ASSERT_EQ(a.shots.size(), b.shots.size());
  for (std::size_t i = 0; i < a.shots.size(); ++i)
    EXPECT_EQ(a.shots[i].capture.file, b.shots[i].capture.file);
}

}  // namespace
}  // namespace edgestab
