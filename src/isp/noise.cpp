// The scalar tier of the counter-based sensor noise, and the helpers both
// tiers share. Built -ffp-contract=off -fno-math-errno
// (src/isp/CMakeLists.txt).
#include "isp/noise.h"

#include <algorithm>
#include <bit>

#include "isp/noise_kernel.h"
#include "tensor/backend.h"
#include "util/check.h"
#include "util/rng.h"

namespace edgestab::noise {

namespace {

// Never reached for lambda < 30 (P(k > 127) < 1e-60); it bounds the loop
// against a CDF that rounds short of the uniform.
constexpr int kPoissonMaxK = 127;

}  // namespace

Stream stream(std::uint64_t key, std::uint32_t domain) {
  SplitMix64 mix(key ^ (static_cast<std::uint64_t>(domain) *
                        0xd1b54a32d192ed03ULL));
  const std::uint64_t z = mix.next();
  return {static_cast<std::uint32_t>(z), static_cast<std::uint32_t>(z >> 32)};
}

std::uint32_t word(Stream s, std::uint32_t index) {
  return hash_word(s, index);
}

float log_f32(float x) { return log_kernel(x); }

void sincos_turn(std::uint32_t k, float& s, float& c) {
  sincos_kernel(k, s, c);
}

double exp_neg(double x) {
  ES_DCHECK(x <= 0.0 && x > -700.0);
  // x = n ln2 + r with |r| <= ln2 / 2; ln2 is split so that n * hi is
  // exact.
  constexpr double kInvLn2 = 1.44269504088896338700e+00;
  constexpr double kLn2HiD = 6.93147180369123816490e-01;
  constexpr double kLn2LoD = 1.90821492927058770002e-10;
  const double n = std::floor(x * kInvLn2 + 0.5);
  const double r = (x - n * kLn2HiD) - n * kLn2LoD;
  // Taylor series to r^13 / 13! (remainder < 2^-53 for |r| <= ln2 / 2),
  // nested: 1 + r (1 + r/2 (1 + ... (1 + r/13))).
  double p = 1.0;
  for (int k = 13; k >= 1; --k) p = 1.0 + p * r / static_cast<double>(k);
  const std::uint64_t scale_bits =
      static_cast<std::uint64_t>(1023 + static_cast<int>(n)) << 52;
  return p * std::bit_cast<double>(scale_bits);
}

int poisson_small(float lambda, std::uint32_t w) {
  ES_DCHECK(lambda >= 0.0f && lambda < kPoissonNormalFrom);
  const double lam = static_cast<double>(lambda);
  const double u = static_cast<double>(w) * 0x1p-32;
  double p = exp_neg(-lam);  // P(0)
  double cdf = p;
  int k = 0;
  while (u >= cdf && k < kPoissonMaxK) {
    ++k;
    p = p * lam / static_cast<double>(k);
    cdf = cdf + p;
  }
  return k;
}

void prnu_normals_scalar(std::uint64_t key, float* out, std::size_t n) {
  const Stream radius = stream(key, kPrnuRadius);
  const Stream angle = stream(key, kPrnuAngle);
  for (std::size_t i = 0; i < n; i += 2) {
    float z0, z1;
    normal_pair(radius, angle, static_cast<std::uint32_t>(i / 2), z0, z1);
    out[i] = z0;
    if (i + 1 < n) out[i + 1] = z1;
  }
}

void sample_shot_scalar(const float* signal, float* raw, std::size_t n,
                        const ShotParams& p) {
  const ShotKernel k = shot_kernel(p);
  // Blocks of pixels: first the block's normals, in a branch-free loop
  // whose long dependency chains overlap across pixels and which the
  // compiler may vectorize (each lane then performs the same correctly
  // rounded operations, so the bits do not change); then the pixels.
  constexpr std::size_t kBlock = 16;
  float z0[kBlock], z1[kBlock];
  for (std::size_t first = 0; first < n; first += kBlock) {
    const std::size_t m = std::min(kBlock, n - first);
    for (std::size_t j = 0; j < m; ++j)
      normal_pair(k.radius, k.angle, static_cast<std::uint32_t>(first + j),
                  z0[j], z1[j]);
    for (std::size_t j = 0; j < m; ++j)
      raw[first + j] =
          sample_pixel(signal[first + j],
                       static_cast<std::uint32_t>(first + j), z0[j], z1[j], k);
  }
}

void prnu_normals(std::uint64_t key, float* out, std::size_t n) {
  if (use_avx2())
    prnu_normals_avx2(key, out, n);
  else
    prnu_normals_scalar(key, out, n);
}

void sample_shot(const float* signal, float* raw, std::size_t n,
                 const ShotParams& p) {
  if (use_avx2())
    sample_shot_avx2(signal, raw, n, p);
  else
    sample_shot_scalar(signal, raw, n, p);
}

}  // namespace edgestab::noise
