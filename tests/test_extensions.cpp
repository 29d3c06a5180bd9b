// Tests for the extension features: post-training quantization, bootstrap
// confidence intervals for the instability metric, and the optional
// optics models (defocus, chromatic aberration).
#include <gtest/gtest.h>

#include <cmath>

#include "core/instability.h"
#include "isp/sensor.h"
#include "nn/loss.h"
#include "nn/mobilenet.h"
#include "nn/quantize.h"
#include "util/rng.h"

namespace edgestab {
namespace {

Model small_model(Pcg32& rng) {
  MobileNetConfig cfg;
  cfg.input_size = 16;
  cfg.num_classes = 4;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  m.init(rng);
  return m;
}

TEST(Quantize, WeightsLandOnGrid) {
  Pcg32 rng(1);
  Model m = small_model(rng);
  QuantizationSpec spec;
  spec.bits = 8;
  spec.per_channel = false;
  QuantizationReport report = quantize_weights(m, spec);
  // Every tensor's values must be integer multiples of its scale.
  std::size_t t = 0;
  for (Param* p : m.params()) {
    float max_abs = report.tensors[t].max_abs;
    if (max_abs > 0.0f) {
      float scale = max_abs / 127.0f;
      for (float v : p->value.data()) {
        float q = v / scale;
        EXPECT_NEAR(q, std::round(q), 1e-3f) << p->name;
      }
    }
    ++t;
  }
}

TEST(Quantize, ReportsPerTensorStats) {
  Pcg32 rng(2);
  Model m = small_model(rng);
  QuantizationReport report = quantize_weights(m, {});
  EXPECT_EQ(report.tensors.size(), m.params().size());
  EXPECT_GT(report.total_mean_abs_error, 0.0);
  for (const auto& t : report.tensors) {
    EXPECT_FALSE(t.name.empty());
    EXPECT_GE(t.max_abs, 0.0f);
  }
}

TEST(Quantize, FewerBitsMoreError) {
  Pcg32 rng(3);
  Model m8 = small_model(rng);
  Pcg32 rng2(3);
  Model m4 = small_model(rng2);
  QuantizationSpec s8;
  s8.bits = 8;
  QuantizationSpec s4;
  s4.bits = 4;
  double e8 = quantize_weights(m8, s8).total_mean_abs_error;
  double e4 = quantize_weights(m4, s4).total_mean_abs_error;
  EXPECT_GT(e4, e8 * 4);
}

TEST(Quantize, Int8PreservesPredictionsMostly) {
  Pcg32 rng(4);
  Model m = small_model(rng);
  Pcg32 xrng(5);
  Tensor x({16, 3, 16, 16});
  for (float& v : x.data()) v = static_cast<float>(xrng.normal(0, 0.5));
  Tensor before = m.infer(x);
  quantize_weights(m, {});
  Tensor after = m.infer(x);
  auto a = argmax_rows(before);
  auto b = argmax_rows(after);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i] == b[i] ? 1 : 0;
  EXPECT_GE(same, 14);  // int8 flips at most a couple of borderline rows
}

TEST(Quantize, RejectsBadWidths) {
  Pcg32 rng(6);
  Model m = small_model(rng);
  QuantizationSpec spec;
  spec.bits = 1;
  EXPECT_THROW(quantize_weights(m, spec), CheckError);
  spec.bits = 17;
  EXPECT_THROW(quantize_weights(m, spec), CheckError);
}

Observation obs(int item, int env, bool correct) {
  Observation o;
  o.item = item;
  o.env = env;
  o.correct = correct;
  return o;
}

TEST(BootstrapCi, BracketsPointEstimate) {
  Pcg32 rng(7);
  std::vector<Observation> v;
  for (int item = 0; item < 200; ++item) {
    bool unstable = rng.bernoulli(0.2);
    bool first = unstable ? true : rng.bernoulli(0.6);
    v.push_back(obs(item, 0, first));
    v.push_back(obs(item, 1, unstable ? !first : first));
  }
  InstabilityResult point = compute_instability(v);
  InstabilityCi ci = bootstrap_instability_ci(v, 0.95, 500, 1);
  EXPECT_DOUBLE_EQ(ci.point, point.instability());
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
  EXPECT_GT(ci.upper - ci.lower, 0.0);
  // With n=200 and p~0.2 the 95% percentile width is roughly 4*sqrt(pq/n).
  EXPECT_LT(ci.upper - ci.lower, 0.25);
  EXPECT_GT(ci.upper - ci.lower, 0.05);
}

TEST(BootstrapCi, DeterministicForSeed) {
  std::vector<Observation> v;
  for (int item = 0; item < 40; ++item) {
    v.push_back(obs(item, 0, item % 3 != 0));
    v.push_back(obs(item, 1, item % 4 != 0));
  }
  InstabilityCi a = bootstrap_instability_ci(v, 0.9, 200, 42);
  InstabilityCi b = bootstrap_instability_ci(v, 0.9, 200, 42);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(BootstrapCi, EmptyAndDegenerate) {
  InstabilityCi empty = bootstrap_instability_ci({}, 0.95, 100, 1);
  EXPECT_DOUBLE_EQ(empty.point, 0.0);
  // All-stable inputs: zero-width interval at zero.
  std::vector<Observation> v{obs(0, 0, true), obs(0, 1, true)};
  InstabilityCi ci = bootstrap_instability_ci(v, 0.95, 100, 1);
  EXPECT_DOUBLE_EQ(ci.point, 0.0);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.upper, 0.0);
}

TEST(Optics, DefaultsAreByteIdenticalToNoOptics) {
  Image scene(32, 32, 3);
  Pcg32 srng(8);
  for (float& v : scene.data()) v = static_cast<float>(srng.uniform());
  SensorConfig plain;
  plain.width = 32;
  plain.height = 32;
  Pcg32 r1(9, 2), r2(9, 2);
  RawImage a = expose_sensor(scene, plain, r1);
  SensorConfig explicit_off = plain;
  explicit_off.defocus = 0.0f;
  explicit_off.chroma_aberration = 0.0f;
  RawImage b = expose_sensor(scene, explicit_off, r2);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Optics, DefocusSoftensEdges) {
  // Step edge scene; defocus must reduce the mosaic's edge contrast.
  Image scene(32, 32, 3);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      for (int c = 0; c < 3; ++c)
        scene.at(x, y, c) = x < 16 ? 0.1f : 0.9f;
  SensorConfig sharp;
  sharp.width = 32;
  sharp.height = 32;
  sharp.read_noise = 0.0f;
  sharp.full_well = 1e7f;
  SensorConfig soft = sharp;
  soft.defocus = 2.0f;
  Pcg32 r1(10, 1), r2(10, 1);
  RawImage a = expose_sensor(scene, sharp, r1);
  RawImage b = expose_sensor(scene, soft, r2);
  // Contrast right at the edge (the 5x5 defocus kernel spreads the
  // transition over x in [14, 17]; sample inside that zone).
  float sharp_step = a.at(17, 16) - a.at(14, 16);
  float soft_step = b.at(17, 16) - b.at(14, 16);
  EXPECT_LT(soft_step, sharp_step - 0.05f);
}

TEST(Optics, ChromaticAberrationShiftsRedBlueApart) {
  // A bright ring against dark background: with CA, red samples shrink
  // toward center and blue expand, so R and B planes diverge off-center.
  Image scene(64, 64, 3);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) {
      float dx = x - 31.5f, dy = y - 31.5f;
      float r = std::sqrt(dx * dx + dy * dy);
      float v = (r > 18.0f && r < 24.0f) ? 0.9f : 0.1f;
      for (int c = 0; c < 3; ++c) scene.at(x, y, c) = v;
    }
  SensorConfig ideal;
  ideal.width = 64;
  ideal.height = 64;
  ideal.read_noise = 0.0f;
  ideal.full_well = 1e7f;
  SensorConfig ca = ideal;
  ca.chroma_aberration = 0.04f;
  Pcg32 r1(11, 1), r2(11, 1);
  RawImage a = expose_sensor(scene, ideal, r1);
  RawImage b = expose_sensor(scene, ca, r2);
  // Without CA the two mosaics match; with CA they differ near the ring.
  double diff = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    diff += std::abs(a.data()[i] - b.data()[i]);
  EXPECT_GT(diff / static_cast<double>(a.data().size()), 1e-3);
}

}  // namespace
}  // namespace edgestab
