// The scalar per-pixel noise kernel, shared by the two TUs that evaluate
// it: noise.cpp (the scalar tier) and noise_avx2.cpp (its scalar tail).
// Internal linkage keeps each TU's copy under its own ISA flags. Every
// expression here has an 8-wide twin in noise_avx2.cpp that performs the
// same operations in the same order; edit both together.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "isp/noise.h"

namespace edgestab::noise {
namespace {

inline constexpr float kInvTwoPow24 = 0x1p-24f;
// One 2^-22 step of a quarter turn: (π/2) / 2^22.
inline constexpr float kQuarterStep =
    static_cast<float>(3.14159265358979323846 / 8388608.0);
inline constexpr float kSqrtHalf = 0.707106781186547524f;

// Cephes logf: log(1 + x) = x - x^2/2 + x^3 P(x), |x| < sqrt(2) - 1.
inline constexpr float kLogP[9] = {
    7.0376836292e-2f,  -1.1514610310e-1f, 1.1676998740e-1f,
    -1.2420140846e-1f, 1.4249322787e-1f,  -1.6668057665e-1f,
    2.0000714765e-1f,  -2.4999993993e-1f, 3.3333331174e-1f};
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kLn2Hi = 0.693359375f;

// Cephes sinf / cosf minimax polynomials on [-π/4, π/4].
inline constexpr float kSinP[3] = {-1.9515295891e-4f, 8.3321608736e-3f,
                                   -1.6666654611e-1f};
inline constexpr float kCosP[3] = {2.443315711809948e-5f,
                                   -1.388731625493765e-3f,
                                   4.166664568298827e-2f};

inline std::uint32_t lowbias32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352dU;
  x ^= x >> 15;
  x *= 0x846ca68bU;
  x ^= x >> 16;
  return x;
}

inline std::uint32_t hash_word(Stream s, std::uint32_t index) {
  return lowbias32(lowbias32(index ^ s.a) + s.b);
}

// log(x) for a positive normal float: x = m 2^e with m in [sqrt(1/2),
// sqrt(2)), then the Cephes polynomial in m - 1.
inline float log_kernel(float x) {
  const std::int32_t bits = std::bit_cast<std::int32_t>(x);
  std::int32_t e = (bits >> 23) - 126;  // x = m 2^e, m in [0.5, 1)
  float m = std::bit_cast<float>((bits & 0x007fffff) | 0x3f000000);
  const bool below = m < kSqrtHalf;  // selects, not branches: both are
  e -= below ? 1 : 0;                // coin flips in a noise loop
  m = below ? m + m : m;
  m = m - 1.0f;
  const float z = m * m;
  float y = kLogP[0];
  for (int i = 1; i < 9; ++i) y = y * m + kLogP[i];
  y = y * m;
  y = y * z;
  const float fe = static_cast<float>(e);
  y = y + fe * kLn2Lo;
  y = y - 0.5f * z;
  float r = m + y;
  r = r + fe * kLn2Hi;
  return r;
}

// sin and cos of 2π k / 2^24 (k < 2^24). The reduction to the nearest
// quarter turn is exact integer arithmetic: q = round(k / 2^22), and the
// remainder t in [-2^21, 2^21) maps to x = t (π/2) / 2^22 in [-π/4, π/4).
inline void sincos_kernel(std::uint32_t k, float& s, float& c) {
  const std::uint32_t q = (k + (1u << 21)) >> 22;  // 0..4
  const std::int32_t t =
      static_cast<std::int32_t>(k) - static_cast<std::int32_t>(q << 22);
  const float x = static_cast<float>(t) * kQuarterStep;
  const float z = x * x;
  float sp = kSinP[0];
  sp = sp * z + kSinP[1];
  sp = sp * z + kSinP[2];
  sp = sp * z;
  sp = sp * x;
  sp = sp + x;
  float cp = kCosP[0];
  cp = cp * z + kCosP[1];
  cp = cp * z + kCosP[2];
  cp = cp * z;
  cp = cp * z;
  cp = cp - 0.5f * z;
  cp = cp + 1.0f;
  // Quarter turns: (sin, cos)(qπ/2 + x) from (sin x, cos x), by a swap
  // when q is odd and a sign flip from bit 1 of q (sin) and of q + 1
  // (cos), done on the bits so that no branch depends on the noise.
  const std::uint32_t swap = 0u - (q & 1u);
  const std::uint32_t sb = std::bit_cast<std::uint32_t>(sp);
  const std::uint32_t cb = std::bit_cast<std::uint32_t>(cp);
  s = std::bit_cast<float>(((sb & ~swap) | (cb & swap)) ^ ((q & 2u) << 30));
  c = std::bit_cast<float>(((cb & ~swap) | (sb & swap)) ^
                           (((q + 1u) & 2u) << 30));
}

// The Box-Muller radius uniform: (w >> 8) + 1 in [1, 2^24], times 2^-24,
// lies in (0, 1], so its log is finite.
inline float radius_uniform(std::uint32_t w) {
  return static_cast<float>(static_cast<std::int32_t>((w >> 8) + 1u)) *
         kInvTwoPow24;
}

// The pair of standard normals at one index of a (radius, angle) pair of
// streams.
inline void normal_pair(Stream radius, Stream angle, std::uint32_t index,
                        float& z0, float& z1) {
  const float u = radius_uniform(hash_word(radius, index));
  const float r = std::sqrt(-2.0f * log_kernel(u));
  float s, c;
  sincos_kernel(hash_word(angle, index) >> 8, s, c);
  z0 = r * c;
  z1 = r * s;
}

// The per-shot constants of sample_shot.
struct ShotKernel {
  Stream radius, angle, poisson;
  float full_well, read_noise, black_level, usable, max_code;
};

inline ShotKernel shot_kernel(const ShotParams& p) {
  return {stream(p.key, kShotRadius),
          stream(p.key, kShotAngle),
          stream(p.key, kShotPoisson),
          p.full_well,
          p.read_noise,
          p.black_level,
          1.0f - p.black_level,
          p.max_code};
}

// One pixel from its normal pair. The AVX2 twin computes the
// normal-approximation branch in every lane and blends; the order of
// operations on each path is the same.
inline float sample_pixel(float signal, std::uint32_t index, float z0,
                          float z1, const ShotKernel& k) {
  const float e = signal * k.full_well;
  float shot;
  if (e < kNoElectronsBelow) {
    shot = 0.0f;
  } else if (e < kPoissonNormalFrom) {
    shot = static_cast<float>(poisson_small(e, hash_word(k.poisson, index)));
  } else {
    float v = e + std::sqrt(e) * z0;
    v = std::floor(v + 0.5f);
    shot = v > 0.0f ? v : 0.0f;
  }
  const float noisy = shot + z1 * k.read_noise;
  float value = k.black_level + k.usable * (noisy / k.full_well);
  value = value > 0.0f ? value : 0.0f;
  value = value < 1.0f ? value : 1.0f;
  return std::floor(value * k.max_code + 0.5f) / k.max_code;
}

}  // namespace
}  // namespace edgestab::noise
