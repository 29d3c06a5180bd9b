// The AVX2 tier of the counter-based sensor noise: eight pixels per step,
// each lane performing the operations of sample_pixel (noise_kernel.h) in
// the same order, so the mosaic is bit-identical to the scalar tier's.
// Built -mavx2 -ffp-contract=off and kept out of kernels_avx2.cpp, whose
// -mfma build contracts a*b+c into fused multiply-adds.
#include "isp/noise.h"

#include "util/check.h"

#if defined(EDGESTAB_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "isp/noise_kernel.h"

namespace edgestab::noise {

namespace {

inline __m256i splat(std::uint32_t v) {
  return _mm256_set1_epi32(static_cast<int>(v));
}

inline __m256i lowbias32_x8(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
  x = _mm256_mullo_epi32(x, splat(0x7feb352dU));
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 15));
  x = _mm256_mullo_epi32(x, splat(0x846ca68bU));
  x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 16));
  return x;
}

struct StreamX8 {
  __m256i a, b;
};

inline StreamX8 stream_x8(Stream s) { return {splat(s.a), splat(s.b)}; }

inline __m256i hash_word_x8(StreamX8 s, __m256i index) {
  return lowbias32_x8(
      _mm256_add_epi32(lowbias32_x8(_mm256_xor_si256(index, s.a)), s.b));
}

inline __m256 log_x8(__m256 x) {
  const __m256i bits = _mm256_castps_si256(x);
  __m256i e = _mm256_sub_epi32(_mm256_srai_epi32(bits, 23), splat(126));
  __m256 m = _mm256_castsi256_ps(_mm256_or_si256(
      _mm256_and_si256(bits, splat(0x007fffffU)), splat(0x3f000000U)));
  const __m256 below =
      _mm256_cmp_ps(m, _mm256_set1_ps(kSqrtHalf), _CMP_LT_OQ);
  e = _mm256_add_epi32(e, _mm256_castps_si256(below));  // -1 where below
  m = _mm256_blendv_ps(m, _mm256_add_ps(m, m), below);
  m = _mm256_sub_ps(m, _mm256_set1_ps(1.0f));
  const __m256 z = _mm256_mul_ps(m, m);
  __m256 y = _mm256_set1_ps(kLogP[0]);
  for (int i = 1; i < 9; ++i)
    y = _mm256_add_ps(_mm256_mul_ps(y, m), _mm256_set1_ps(kLogP[i]));
  y = _mm256_mul_ps(y, m);
  y = _mm256_mul_ps(y, z);
  const __m256 fe = _mm256_cvtepi32_ps(e);
  y = _mm256_add_ps(y, _mm256_mul_ps(fe, _mm256_set1_ps(kLn2Lo)));
  y = _mm256_sub_ps(y, _mm256_mul_ps(_mm256_set1_ps(0.5f), z));
  __m256 r = _mm256_add_ps(m, y);
  r = _mm256_add_ps(r, _mm256_mul_ps(fe, _mm256_set1_ps(kLn2Hi)));
  return r;
}

inline void sincos_x8(__m256i k, __m256& s, __m256& c) {
  const __m256i q =
      _mm256_srli_epi32(_mm256_add_epi32(k, splat(1u << 21)), 22);
  const __m256i t = _mm256_sub_epi32(k, _mm256_slli_epi32(q, 22));
  const __m256 x =
      _mm256_mul_ps(_mm256_cvtepi32_ps(t), _mm256_set1_ps(kQuarterStep));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 sp = _mm256_set1_ps(kSinP[0]);
  sp = _mm256_add_ps(_mm256_mul_ps(sp, z), _mm256_set1_ps(kSinP[1]));
  sp = _mm256_add_ps(_mm256_mul_ps(sp, z), _mm256_set1_ps(kSinP[2]));
  sp = _mm256_mul_ps(sp, z);
  sp = _mm256_mul_ps(sp, x);
  sp = _mm256_add_ps(sp, x);
  __m256 cp = _mm256_set1_ps(kCosP[0]);
  cp = _mm256_add_ps(_mm256_mul_ps(cp, z), _mm256_set1_ps(kCosP[1]));
  cp = _mm256_add_ps(_mm256_mul_ps(cp, z), _mm256_set1_ps(kCosP[2]));
  cp = _mm256_mul_ps(cp, z);
  cp = _mm256_mul_ps(cp, z);
  cp = _mm256_sub_ps(cp, _mm256_mul_ps(_mm256_set1_ps(0.5f), z));
  cp = _mm256_add_ps(cp, _mm256_set1_ps(1.0f));
  const __m256i one = splat(1);
  const __m256i two = splat(2);
  const __m256 swap = _mm256_castsi256_ps(
      _mm256_cmpeq_epi32(_mm256_and_si256(q, one), one));
  s = _mm256_blendv_ps(sp, cp, swap);
  c = _mm256_blendv_ps(cp, sp, swap);
  // Sign bit from bit 1 of q (sin) and of q + 1 (cos).
  s = _mm256_xor_ps(s, _mm256_castsi256_ps(_mm256_slli_epi32(
                           _mm256_and_si256(q, two), 30)));
  c = _mm256_xor_ps(c, _mm256_castsi256_ps(_mm256_slli_epi32(
                           _mm256_and_si256(_mm256_add_epi32(q, one), two),
                           30)));
}

// Eight Box-Muller pairs (normal_pair).
inline void normal_pair_x8(const StreamX8& radius, const StreamX8& angle,
                           __m256i index, __m256& z0, __m256& z1) {
  const __m256i wr = hash_word_x8(radius, index);
  const __m256 u = _mm256_mul_ps(
      _mm256_cvtepi32_ps(
          _mm256_add_epi32(_mm256_srli_epi32(wr, 8), splat(1))),
      _mm256_set1_ps(kInvTwoPow24));
  const __m256 r =
      _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0f), log_x8(u)));
  __m256 s, c;
  sincos_x8(_mm256_srli_epi32(hash_word_x8(angle, index), 8), s, c);
  z0 = _mm256_mul_ps(r, c);
  z1 = _mm256_mul_ps(r, s);
}

// Indices first .. first + 7.
inline __m256i lane_indices(std::size_t first) {
  return _mm256_add_epi32(splat(static_cast<std::uint32_t>(first)),
                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

}  // namespace

void prnu_normals_avx2(std::uint64_t key, float* out, std::size_t n) {
  const Stream radius = stream(key, kPrnuRadius);
  const Stream angle = stream(key, kPrnuAngle);
  const StreamX8 radius_x8 = stream_x8(radius);
  const StreamX8 angle_x8 = stream_x8(angle);
  alignas(32) float z0[8];
  alignas(32) float z1[8];
  std::size_t j = 0;  // pair index
  for (; 2 * (j + 8) <= n; j += 8) {
    __m256 a, b;
    normal_pair_x8(radius_x8, angle_x8, lane_indices(j), a, b);
    _mm256_store_ps(z0, a);
    _mm256_store_ps(z1, b);
    for (std::size_t l = 0; l < 8; ++l) {
      out[2 * (j + l)] = z0[l];
      out[2 * (j + l) + 1] = z1[l];
    }
  }
  for (std::size_t i = 2 * j; i < n; i += 2) {
    float a, b;
    normal_pair(radius, angle, static_cast<std::uint32_t>(i / 2), a, b);
    out[i] = a;
    if (i + 1 < n) out[i + 1] = b;
  }
}

void sample_shot_avx2(const float* signal, float* raw, std::size_t n,
                      const ShotParams& p) {
  const ShotKernel k = shot_kernel(p);
  const StreamX8 radius = stream_x8(k.radius);
  const StreamX8 angle = stream_x8(k.angle);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 full_well = _mm256_set1_ps(k.full_well);
  const __m256 read_noise = _mm256_set1_ps(k.read_noise);
  const __m256 black_level = _mm256_set1_ps(k.black_level);
  const __m256 usable = _mm256_set1_ps(k.usable);
  const __m256 max_code = _mm256_set1_ps(k.max_code);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i index = lane_indices(i);
    const __m256 e = _mm256_mul_ps(_mm256_loadu_ps(signal + i), full_well);
    __m256 z0, z1;
    normal_pair_x8(radius, angle, index, z0, z1);

    // Shot noise: the normal approximation in every lane, then the
    // Poisson lanes and the dark lanes blended in.
    __m256 v = _mm256_add_ps(e, _mm256_mul_ps(_mm256_sqrt_ps(e), z0));
    v = _mm256_floor_ps(_mm256_add_ps(v, half));
    __m256 shot = _mm256_max_ps(v, zero);
    const __m256 dark =
        _mm256_cmp_ps(e, _mm256_set1_ps(kNoElectronsBelow), _CMP_LT_OQ);
    const __m256 small =
        _mm256_cmp_ps(e, _mm256_set1_ps(kPoissonNormalFrom), _CMP_LT_OQ);
    const int poisson_lanes =
        _mm256_movemask_ps(_mm256_andnot_ps(dark, small));
    if (poisson_lanes != 0) {
      alignas(32) float ev[8];
      alignas(32) float sv[8];
      _mm256_store_ps(ev, e);
      _mm256_store_ps(sv, shot);
      for (int l = 0; l < 8; ++l)
        if ((poisson_lanes >> l) & 1)
          sv[l] = static_cast<float>(poisson_small(
              ev[l], hash_word(k.poisson, static_cast<std::uint32_t>(i) +
                                              static_cast<std::uint32_t>(l))));
      shot = _mm256_load_ps(sv);
    }
    shot = _mm256_andnot_ps(dark, shot);

    // Read noise, black level and the ADC.
    const __m256 noisy = _mm256_add_ps(shot, _mm256_mul_ps(z1, read_noise));
    __m256 value = _mm256_add_ps(
        black_level, _mm256_mul_ps(usable, _mm256_div_ps(noisy, full_well)));
    value = _mm256_max_ps(value, zero);
    value = _mm256_min_ps(value, one);
    value = _mm256_div_ps(
        _mm256_floor_ps(_mm256_add_ps(_mm256_mul_ps(value, max_code), half)),
        max_code);
    _mm256_storeu_ps(raw + i, value);
  }
  for (; i < n; ++i) {
    float z0, z1;
    normal_pair(k.radius, k.angle, static_cast<std::uint32_t>(i), z0, z1);
    raw[i] = sample_pixel(signal[i], static_cast<std::uint32_t>(i), z0, z1, k);
  }
}

}  // namespace edgestab::noise

#else  // EDGESTAB_AVX2 compiled out: dispatch is guarded by
       // backend_available(kAvx2), so reaching this is a bug.

namespace edgestab::noise {

void prnu_normals_avx2(std::uint64_t, float*, std::size_t) {
  ES_CHECK_MSG(false, "AVX2 noise called but EDGESTAB_AVX2 is compiled out");
}

void sample_shot_avx2(const float*, float*, std::size_t, const ShotParams&) {
  ES_CHECK_MSG(false, "AVX2 noise called but EDGESTAB_AVX2 is compiled out");
}

}  // namespace edgestab::noise

#endif
