// Counter-based, libm-free sensor noise.
//
// Every draw is a pure function of (key, index, domain tag): a keyed
// 32-bit hash of the pixel index stands in for a sequential stream, in
// the spirit of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
// 3" (SC'11). No state passes from pixel to pixel, so a shot can be
// sampled in any order and any lane width. Normals come from a float32
// Box-Muller whose log and sincos are in-tree polynomials; the small-λ
// Poisson is an inverse CDF with an in-tree exp. The arithmetic uses only
// operations IEEE 754 rounds correctly (+, -, *, /, sqrt, floor and exact
// int<->float conversions) in one fixed order, and the two TUs that
// evaluate it (noise.cpp, noise_avx2.cpp) are built -ffp-contract=off. So
// the scalar loop and the 8-wide AVX2 loop produce the same bits, and no
// libm build enters a raw mosaic.
#pragma once

#include <cstddef>
#include <cstdint>

namespace edgestab::noise {

/// Names the generator. It is part of every cache key that covers data
/// the sensor produced (the workspace fingerprint), so changing any
/// arithmetic below must change this string.
inline constexpr const char* kGenerator = "ctr-lowbias32x2-boxmuller-f32-v1";

/// Domain tags: each names one independent family of words per key.
enum Domain : std::uint32_t {
  kShotRadius = 1,   ///< Box-Muller radius uniform of a shot's pixel
  kShotAngle = 2,    ///< Box-Muller angle uniform of a shot's pixel
  kShotPoisson = 3,  ///< inverse-CDF uniform of a small-λ pixel
  kPrnuRadius = 4,   ///< PRNU pattern, keyed by the unit seed
  kPrnuAngle = 5,
};

/// One domain's subkey, derived from (key, domain) by SplitMix64.
struct Stream {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

Stream stream(std::uint64_t key, std::uint32_t domain);

/// The uniform 32-bit word at `index`: two rounds of the lowbias32 mixer
/// with the subkey folded in before each. A bijection of `index` for a
/// fixed stream, so no two pixels of a shot share a word.
std::uint32_t word(Stream s, std::uint32_t index);

/// Shot noise switches from the Poisson inverse CDF to the normal
/// approximation at this many expected electrons.
inline constexpr float kPoissonNormalFrom = 30.0f;

/// Below this many expected electrons a pixel collects none.
inline constexpr float kNoElectronsBelow = 1e-3f;

/// Poisson draw for kNoElectronsBelow <= lambda < kPoissonNormalFrom by
/// inverting the CDF at the uniform `w` * 2^-32 (in double, with the
/// in-tree exp). The one function both tiers call for such pixels.
int poisson_small(float lambda, std::uint32_t w);

/// In-tree float32 natural log of a positive normal float.
float log_f32(float x);

/// In-tree sin and cos of 2π k / 2^24 for k < 2^24, float32.
void sincos_turn(std::uint32_t k, float& s, float& c);

/// In-tree double exp for -700 < x <= 0.
double exp_neg(double x);

/// Standard normals out[0..n): Box-Muller pair j, from the kPrnuRadius
/// and kPrnuAngle words at index j of `key`, fills out[2j] and out[2j+1].
/// Dispatches on use_avx2(); both tiers give the same bits. Unlike a raw
/// mosaic, the normals carry every bit of the log and sincos, so they are
/// where a tier difference in that arithmetic shows first.
void prnu_normals(std::uint64_t key, float* out, std::size_t n);
void prnu_normals_scalar(std::uint64_t key, float* out, std::size_t n);
/// Requires the AVX2 tier (compiled in and available on this CPU).
void prnu_normals_avx2(std::uint64_t key, float* out, std::size_t n);

/// The per-shot sensor model of one mosaic, pixel i at index i.
struct ShotParams {
  std::uint64_t key = 0;   ///< one draw from the shot's Pcg32
  float full_well = 1.0f;  ///< electrons at signal 1
  float read_noise = 0.0f; ///< electrons RMS
  float black_level = 0.0f;
  float max_code = 1023.0f;  ///< (1 << bit_depth) - 1
};

/// raw[i] = ADC code / max_code of signal[i] with shot noise, read noise
/// and the black level; dispatches on use_avx2(). Both tiers give the
/// same bits.
void sample_shot(const float* signal, float* raw, std::size_t n,
                 const ShotParams& p);
void sample_shot_scalar(const float* signal, float* raw, std::size_t n,
                        const ShotParams& p);
/// Requires the AVX2 tier (compiled in and available on this CPU).
void sample_shot_avx2(const float* signal, float* raw, std::size_t n,
                      const ShotParams& p);

}  // namespace edgestab::noise
