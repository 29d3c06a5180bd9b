#include "util/rng.h"

#include <cmath>

namespace edgestab {

double Pcg32::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; guard against log(0).
  double u1 = uniform();
  double u2 = uniform();
  if (u1 < 1e-12) u1 = 1e-12;
  const double two_pi = 6.283185307179586476925286766559;
  double r = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = r * std::sin(two_pi * u2);
  have_cached_normal_ = true;
  return r * std::cos(two_pi * u2);
}

Pcg32 Pcg32::fork(std::uint64_t stream_tag) {
  SplitMix64 mix(next_u64() ^ (stream_tag * 0x9e3779b97f4a7c15ULL));
  std::uint64_t seed = mix.next();
  std::uint64_t stream = mix.next() | 1u;
  return Pcg32(seed, stream);
}

}  // namespace edgestab
