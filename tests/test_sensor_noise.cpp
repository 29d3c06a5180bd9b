// Counter-based sensor noise (src/isp/noise.h): the scalar and AVX2 tiers
// give bit-identical mosaics, the noise keeps the statistics of the
// sequential PCG32 + glibc generator it replaced (a copy of that loop
// lives below), neighbouring pixels and consecutive shots are
// uncorrelated, and the in-tree log / sincos / exp track libm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "device/fleets.h"
#include "isp/noise.h"
#include "isp/sensor.h"
#include "tensor/backend.h"
#include "util/rng.h"
#include "util/stats.h"

namespace edgestab {
namespace {

class BackendGuard {
 public:
  BackendGuard() : prev_(active_backend()) {}
  ~BackendGuard() { set_active_backend(prev_); }

 private:
  BackendKind prev_;
};

// ---- The generator this one replaced, kept as the statistical reference.

int parent_poisson(Pcg32& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    double l = std::exp(-lambda);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.uniform();
    } while (p > l);
    return k - 1;
  }
  double v = rng.normal(lambda, std::sqrt(lambda));
  return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
}

RawImage parent_sample_sensor(const Image& signal_map,
                              const SensorConfig& config, Pcg32& rng) {
  RawImage raw(config.width, config.height, config.pattern,
               config.black_level, config.bit_depth);
  const float max_code = static_cast<float>((1 << config.bit_depth) - 1);
  const float usable = 1.0f - config.black_level;
  for (int y = 0; y < config.height; ++y) {
    for (int x = 0; x < config.width; ++x) {
      float electrons = signal_map.at(x, y, 0) * config.full_well;
      float noisy_electrons;
      if (electrons < 1e-3f) {
        noisy_electrons = 0.0f;
      } else {
        noisy_electrons = static_cast<float>(
            parent_poisson(rng, static_cast<double>(electrons)));
      }
      noisy_electrons +=
          static_cast<float>(rng.normal(0.0, config.read_noise));
      float value = config.black_level +
                    usable * (noisy_electrons / config.full_well);
      value = std::clamp(value, 0.0f, 1.0f);
      value = std::round(value * max_code) / max_code;
      raw.at(x, y) = value;
    }
  }
  return raw;
}

// ---- Helpers.

SensorConfig sized(int width, int height) {
  SensorConfig cfg;
  cfg.width = width;
  cfg.height = height;
  return cfg;
}

Image flat_signal(const SensorConfig& cfg, double lambda) {
  return Image(cfg.width, cfg.height, 1,
               static_cast<float>(lambda / cfg.full_well));
}

// A signal map that walks every branch of the shot noise: no electrons,
// both sides of the Poisson / normal switch, full well and beyond, mixed
// with random levels.
Image mixed_signal(const SensorConfig& cfg, std::uint64_t seed) {
  const double fw = cfg.full_well;
  const std::vector<double> lambdas = {
      0.0,  5e-4, 1e-3, 2e-3, 0.5,  1.0,  5.0,     29.0,    29.999, 30.0,
      30.001, 31.0, 200.0, 5000.0, fw * 0.5, fw, fw * 1.05, fw * 3.0};
  Pcg32 rng(seed);
  Image signal(cfg.width, cfg.height, 1);
  std::size_t i = 0;
  for (float& v : signal.data()) {
    const std::size_t pick = i++ % (lambdas.size() + 3);
    v = pick < lambdas.size()
            ? static_cast<float>(lambdas[pick] / fw)
            : static_cast<float>(rng.uniform(0.0, 1.1));
  }
  return signal;
}

// A dense ramp over [0, 1.1] full well in raster order, so every λ band
// and every ADC code boundary is crossed.
Image ramp_signal(const SensorConfig& cfg) {
  Image signal(cfg.width, cfg.height, 1);
  const float last = static_cast<float>(signal.data().size() - 1);
  std::size_t i = 0;
  for (float& v : signal.data())
    v = last > 0.0f ? 1.1f * static_cast<float>(i++) / last : 0.5f;
  return signal;
}

std::vector<SensorConfig> every_fleet_sensor() {
  std::vector<SensorConfig> out;
  for (float divergence : {0.0f, 1.0f, 4.0f})
    for (const PhoneProfile& p : end_to_end_fleet(divergence))
      out.push_back(p.sensor);
  for (const PhoneProfile& p : firebase_fleet()) out.push_back(p.sensor);
  return out;
}

bool same_bits(const RawImage& a, const RawImage& b) {
  return a.data().size() == b.data().size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

// Electrons a raw sample stands for.
double electrons_of(float raw, const SensorConfig& cfg) {
  return (static_cast<double>(raw) - cfg.black_level) /
         (1.0 - cfg.black_level) * cfg.full_well;
}

// ---- Tier invariance.

TEST(SensorNoise, ScalarAndAvx2MosaicsAreBitIdentical) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  BackendGuard guard;
  std::vector<SensorConfig> configs = every_fleet_sensor();
  for (auto [w, h] : {std::pair{64, 64}, std::pair{61, 37}, std::pair{1, 1},
                      std::pair{7, 3}, std::pair{9, 1}, std::pair{128, 96},
                      std::pair{4099, 1}})
    configs.push_back(sized(w, h));
  SensorConfig fine = sized(33, 17);
  fine.bit_depth = 16;
  fine.read_noise = 3.5f;
  configs.push_back(fine);

  int compared = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const SensorConfig& cfg = configs[c];
    for (const Image& signal : {mixed_signal(cfg, 100 + c), ramp_signal(cfg)})
      for (std::uint64_t shot = 0; shot < 3; ++shot) {
        Pcg32 scalar_rng(shot, c), avx2_rng(shot, c);
        set_active_backend(BackendKind::kScalar);
        const RawImage scalar = sample_sensor(signal, cfg, scalar_rng);
        ASSERT_EQ(set_active_backend(BackendKind::kAvx2), BackendKind::kAvx2);
        const RawImage avx2 = sample_sensor(signal, cfg, avx2_rng);
        EXPECT_TRUE(same_bits(scalar, avx2))
            << "config " << c << " (" << cfg.width << "x" << cfg.height
            << ") shot " << shot;
        ++compared;
      }
  }
  EXPECT_EQ(compared, static_cast<int>(configs.size()) * 6);
}

// A 10-bit ADC hides almost every one-ulp difference in the shot
// arithmetic, so the kernels are also compared with a 24-bit code and a
// million pixels, where one contracted multiply-add in the
// normal-approximation branch changes some electron counts.
TEST(SensorNoise, ShotKernelsAgreeAtFullPrecision) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  const std::size_t n = (std::size_t{1} << 20) + 5;
  std::vector<float> signal(n), scalar(n), avx2(n);
  for (std::size_t i = 0; i < n; ++i)
    signal[i] = 1.1f * static_cast<float>(i) / static_cast<float>(n - 1);
  noise::ShotParams p;
  p.full_well = 22000.0f;
  p.read_noise = 1.5f;
  p.black_level = 0.06f;
  p.max_code = 16777215.0f;  // 2^24 - 1
  for (std::uint64_t key : {0ull, 1ull, 0xfeedfacecafebeefull}) {
    p.key = key;
    noise::sample_shot_scalar(signal.data(), scalar.data(), n, p);
    noise::sample_shot_avx2(signal.data(), avx2.data(), n, p);
    EXPECT_EQ(std::memcmp(scalar.data(), avx2.data(), n * sizeof(float)), 0)
        << "key " << key;
  }
}

// The normals carry every bit of the in-tree log and sincos (a mosaic
// quantizes most of them away), so a tier difference in that arithmetic,
// such as one contracted multiply-add, shows here first.
TEST(SensorNoise, PrnuNormalsAreBitIdenticalAcrossTiers) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  for (std::uint64_t key : {0ull, 1ull, 5ull, 999ull, 0xfeedfacecafebeefull})
    for (std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{17},
                          std::size_t{(1u << 17) + 3}}) {
      std::vector<float> scalar(n), avx2(n);
      noise::prnu_normals_scalar(key, scalar.data(), n);
      noise::prnu_normals_avx2(key, avx2.data(), n);
      EXPECT_EQ(std::memcmp(scalar.data(), avx2.data(), n * sizeof(float)), 0)
          << "key " << key << " n " << n;
    }
}

// ---- Statistics against the parent generator.

// Each level's mean and variance, in electrons, over 65,536 samples of a
// 16-bit ADC (one code is 0.36 e-, so quantization does not mask the
// small-λ levels). Tolerances: the mean within five standard errors of
// the difference of two sample means plus 0.05 e-; the variance within
// 5% plus 0.05 e-^2.
TEST(SensorNoise, FlatFieldMeanAndVarianceMatchParentLoop) {
  SensorConfig cfg = sized(128, 128);
  cfg.bit_depth = 16;
  cfg.full_well = 22000.0f;
  cfg.read_noise = 1.0f;
  for (double lambda : {0.0, 0.5, 5.0, 29.0, 31.0, 200.0, 5000.0, 22000.0}) {
    const Image signal = flat_signal(cfg, lambda);
    RunningStats now, parent;
    Pcg32 rng(41), parent_rng(41);
    for (int shot = 0; shot < 4; ++shot) {
      const RawImage a = sample_sensor(signal, cfg, rng);
      const RawImage b = parent_sample_sensor(signal, cfg, parent_rng);
      for (float v : a.data()) now.add(electrons_of(v, cfg));
      for (float v : b.data()) parent.add(electrons_of(v, cfg));
    }
    const double n = static_cast<double>(now.count());
    const double mean_tol =
        5.0 * std::sqrt((now.variance() + parent.variance()) / n) + 0.05;
    EXPECT_NEAR(now.mean(), parent.mean(), mean_tol) << "lambda " << lambda;
    EXPECT_NEAR(now.variance(), parent.variance(),
                0.05 * parent.variance() + 0.05)
        << "lambda " << lambda;
  }
}

TEST(SensorNoise, SmallLambdaPoissonHasPoissonMoments) {
  const noise::Stream s = noise::stream(7, noise::kShotPoisson);
  for (float lambda : {0.0f, 0.5f, 5.0f, 29.0f}) {
    RunningStats st;
    for (std::uint32_t i = 0; i < 200000; ++i)
      st.add(noise::poisson_small(lambda, noise::word(s, i)));
    if (lambda == 0.0f) {
      EXPECT_EQ(st.max(), 0.0);
      continue;
    }
    EXPECT_NEAR(st.mean(), lambda, 0.02 * lambda + 0.01) << lambda;
    EXPECT_NEAR(st.variance(), lambda, 0.03 * lambda + 0.01) << lambda;
  }
}

TEST(SensorNoise, NormalsHaveUnitMoments) {
  std::vector<float> z(200000);
  noise::prnu_normals(3, z.data(), z.size());
  RunningStats st;
  double fourth = 0.0;
  for (float v : z) {
    st.add(v);
    fourth += static_cast<double>(v) * v * v * v;
  }
  EXPECT_NEAR(st.mean(), 0.0, 0.01);
  EXPECT_NEAR(st.stdev(), 1.0, 0.01);
  EXPECT_NEAR(fourth / static_cast<double>(z.size()), 3.0, 0.1);
}

// Pearson correlation of the pairs (a[i], b[i]).
double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  RunningStats sa, sb;
  for (double v : a) sa.add(v);
  for (double v : b) sb.add(v);
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  cov /= static_cast<double>(a.size());
  return cov / (sa.stdev() * sb.stdev());
}

// Over 8 shots of a 256x256 flat field (about 520,000 pairs per lag), the
// standard error of a zero correlation is 0.0014; the bound is 0.01.
TEST(SensorNoise, NoLagOneCorrelationAcrossPixelsOrShots) {
  SensorConfig cfg = sized(256, 256);
  cfg.bit_depth = 16;
  const Image signal = flat_signal(cfg, 5000.0);
  Pcg32 rng(29);
  std::vector<std::vector<double>> shots;
  for (int s = 0; s < 9; ++s) {
    const RawImage raw = sample_sensor(signal, cfg, rng);
    std::vector<double> e;
    for (float v : raw.data()) e.push_back(electrons_of(v, cfg));
    shots.push_back(std::move(e));
  }
  const std::size_t w = static_cast<std::size_t>(cfg.width);
  std::vector<double> left, right, up, down, before, after;
  for (int s = 0; s < 8; ++s) {
    const std::vector<double>& e = shots[static_cast<std::size_t>(s)];
    for (std::size_t i = 0; i < e.size(); ++i) {
      if ((i + 1) % w != 0) {
        left.push_back(e[i]);
        right.push_back(e[i + 1]);
      }
      if (i + w < e.size()) {
        up.push_back(e[i]);
        down.push_back(e[i + w]);
      }
      before.push_back(e[i]);
      after.push_back(shots[static_cast<std::size_t>(s) + 1][i]);
    }
  }
  EXPECT_LT(std::abs(correlation(left, right)), 0.01);
  EXPECT_LT(std::abs(correlation(up, down)), 0.01);
  EXPECT_LT(std::abs(correlation(before, after)), 0.01);
}

// ---- The in-tree math against libm.

TEST(SensorNoise, InTreeLogSincosExpTrackLibm) {
  for (std::uint32_t k = 1; k <= (1u << 24); k += 997) {
    const float u = static_cast<float>(k) * 0x1p-24f;
    const double want = std::log(static_cast<double>(u));
    EXPECT_NEAR(noise::log_f32(u), want, 2e-7 + 2e-7 * std::abs(want))
        << "u " << u;
  }
  EXPECT_EQ(noise::log_f32(1.0f), 0.0f);
  for (std::uint32_t k = 0; k < (1u << 24); k += 1013) {
    float s, c;
    noise::sincos_turn(k, s, c);
    const double a = 2.0 * 3.14159265358979323846 * k * 0x1p-24;
    EXPECT_NEAR(s, std::sin(a), 3e-7) << "k " << k;
    EXPECT_NEAR(c, std::cos(a), 3e-7) << "k " << k;
  }
  for (double x = 0.0; x > -40.0; x -= 0.0137) {
    const double want = std::exp(x);
    EXPECT_NEAR(noise::exp_neg(x), want, 4e-16 * want) << "x " << x;
  }
}

}  // namespace
}  // namespace edgestab
