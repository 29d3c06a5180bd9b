// Deterministic, portable random number generation.
//
// All experiment randomness flows through Pcg32 with hand-written
// uniform/normal transforms so results are bit-identical across standard
// libraries and platforms (std:: distributions are implementation-defined).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace edgestab {

/// SplitMix64 — used to expand a single user seed into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG32 (XSH-RR 64/32). Small, fast, statistically solid, reproducible.
class Pcg32 {
 public:
  Pcg32() : Pcg32(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}

  explicit Pcg32(std::uint64_t seed, std::uint64_t stream = 1) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    next_u32();
    state_ += seed;
    next_u32();
  }

  std::uint32_t next_u32() {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u32()) * (1.0 / 4294967296.0);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint32_t uniform_int(std::uint32_t n) {
    ES_DCHECK(n > 0);
    std::uint32_t threshold = (-n) % n;
    for (;;) {
      std::uint32_t r = next_u32();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    ES_DCHECK(hi >= lo);
    return lo + static_cast<int>(
                    uniform_int(static_cast<std::uint32_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with explicit mean / standard deviation.
  double normal(double mean, double stdev) { return mean + stdev * normal(); }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_int(static_cast<std::uint32_t>(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    ES_CHECK(!v.empty());
    return v[uniform_int(static_cast<std::uint32_t>(v.size()))];
  }

  /// Derive an independent child generator (for per-image streams).
  Pcg32 fork(std::uint64_t stream_tag);

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace edgestab
