#include "codec/dct.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/backend.h"
#include "tensor/kernels_avx2.h"
#include "util/check.h"

namespace edgestab {

namespace {

/// Orthonormal DCT-II basis: C[k][x] = a(k) cos((2x+1)kπ/2n).
struct Basis {
  std::vector<float> c;  // [k*n + x]
  int n;
};

const Basis& basis_for(int n) {
  static const Basis b4 = [] {
    Basis b;
    b.n = 4;
    b.c.resize(16);
    for (int k = 0; k < 4; ++k)
      for (int x = 0; x < 4; ++x)
        b.c[static_cast<std::size_t>(k * 4 + x)] = static_cast<float>(
            std::sqrt((k == 0 ? 1.0 : 2.0) / 4.0) *
            std::cos((2 * x + 1) * k * 3.14159265358979323846 / 8.0));
    return b;
  }();
  static const Basis b8 = [] {
    Basis b;
    b.n = 8;
    b.c.resize(64);
    for (int k = 0; k < 8; ++k)
      for (int x = 0; x < 8; ++x)
        b.c[static_cast<std::size_t>(k * 8 + x)] = static_cast<float>(
            std::sqrt((k == 0 ? 1.0 : 2.0) / 8.0) *
            std::cos((2 * x + 1) * k * 3.14159265358979323846 / 16.0));
    return b;
  }();
  static const Basis b16 = [] {
    Basis b;
    b.n = 16;
    b.c.resize(256);
    for (int k = 0; k < 16; ++k)
      for (int x = 0; x < 16; ++x)
        b.c[static_cast<std::size_t>(k * 16 + x)] = static_cast<float>(
            std::sqrt((k == 0 ? 1.0 : 2.0) / 16.0) *
            std::cos((2 * x + 1) * k * 3.14159265358979323846 / 32.0));
    return b;
  }();
  switch (n) {
    case 4: return b4;
    case 8: return b8;
    case 16: return b16;
    default: ES_CHECK_MSG(false, "unsupported DCT size " << n);
  }
  return b8;  // unreachable
}

/// Transposed 8x8 basis (Ct[x][k] = C[k][x]) for the AVX2 sandwich
/// product out = L * (X * R).
const float* basis8_transposed() {
  static const std::array<float, 64> t = [] {
    const Basis& b = basis_for(8);
    std::array<float, 64> out{};
    for (int k = 0; k < 8; ++k)
      for (int x = 0; x < 8; ++x)
        out[static_cast<std::size_t>(x * 8 + k)] =
            b.c[static_cast<std::size_t>(k * 8 + x)];
    return out;
  }();
  return t.data();
}

}  // namespace

void fdct_2d(const float* block, float* coeffs, int n) {
  if (n == 8 && use_avx2()) {
    // coeffs = C * (X * C^T), both passes in one broadcast-FMA kernel.
    avx2::gemm8x8_pair_f32(block, basis_for(8).c.data(),
                           basis8_transposed(), coeffs);
    return;
  }
  const Basis& b = basis_for(n);
  std::vector<float> tmp(static_cast<std::size_t>(n) * n);
  // Rows: tmp[y][k] = sum_x block[y][x] C[k][x]
  for (int y = 0; y < n; ++y)
    for (int k = 0; k < n; ++k) {
      float sum = 0.0f;
      for (int x = 0; x < n; ++x)
        sum += block[y * n + x] * b.c[static_cast<std::size_t>(k * n + x)];
      tmp[static_cast<std::size_t>(y * n + k)] = sum;
    }
  // Columns: coeffs[ky][kx] = sum_y tmp[y][kx] C[ky][y]
  for (int ky = 0; ky < n; ++ky)
    for (int kx = 0; kx < n; ++kx) {
      float sum = 0.0f;
      for (int y = 0; y < n; ++y)
        sum += tmp[static_cast<std::size_t>(y * n + kx)] *
               b.c[static_cast<std::size_t>(ky * n + y)];
      coeffs[ky * n + kx] = sum;
    }
}

void idct_2d(const float* coeffs, float* block, int n) {
  if (n == 8 && use_avx2()) {
    // block = C^T * (coeffs * C) — associativity-equivalent to the scalar
    // (C^T * coeffs) * C ordering; last-ULP divergence by design.
    avx2::gemm8x8_pair_f32(coeffs, basis8_transposed(), basis_for(8).c.data(),
                           block);
    return;
  }
  const Basis& b = basis_for(n);
  std::vector<float> tmp(static_cast<std::size_t>(n) * n);
  // Columns first: tmp[y][kx] = sum_ky coeffs[ky][kx] C[ky][y]
  for (int y = 0; y < n; ++y)
    for (int kx = 0; kx < n; ++kx) {
      float sum = 0.0f;
      for (int ky = 0; ky < n; ++ky)
        sum += coeffs[ky * n + kx] *
               b.c[static_cast<std::size_t>(ky * n + y)];
      tmp[static_cast<std::size_t>(y * n + kx)] = sum;
    }
  // Rows: block[y][x] = sum_kx tmp[y][kx] C[kx][x]
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x) {
      float sum = 0.0f;
      for (int kx = 0; kx < n; ++kx)
        sum += tmp[static_cast<std::size_t>(y * n + kx)] *
               b.c[static_cast<std::size_t>(kx * n + x)];
      block[y * n + x] = sum;
    }
}

void idct8_fixed(const float* coeffs, float* block) {
  // 16.16 fixed-point basis; accumulation and rounding differ from the
  // float path by design.
  static const std::array<std::int32_t, 64> kBasis = [] {
    std::array<std::int32_t, 64> t{};
    for (int k = 0; k < 8; ++k)
      for (int x = 0; x < 8; ++x)
        t[static_cast<std::size_t>(k * 8 + x)] = static_cast<std::int32_t>(
            std::lround(std::sqrt((k == 0 ? 1.0 : 2.0) / 8.0) *
                        std::cos((2 * x + 1) * k *
                                 3.14159265358979323846 / 16.0) *
                        65536.0));
    return t;
  }();
  std::int64_t fixed[64];  // coefficients with an 8-bit fraction
  for (int i = 0; i < 64; ++i)
    fixed[i] = static_cast<std::int64_t>(std::lround(coeffs[i] * 256.0f));
  std::int64_t tmp[64];
  for (int y = 0; y < 8; ++y)
    for (int kx = 0; kx < 8; ++kx) {
      std::int64_t sum = 0;
      for (int ky = 0; ky < 8; ++ky)
        sum += fixed[ky * 8 + kx] *
               kBasis[static_cast<std::size_t>(ky * 8 + y)];
      tmp[y * 8 + kx] = sum >> 16;
    }
  for (int y = 0; y < 8; ++y)
    for (int x = 0; x < 8; ++x) {
      std::int64_t sum = 0;
      for (int kx = 0; kx < 8; ++kx)
        sum += tmp[y * 8 + kx] * kBasis[static_cast<std::size_t>(kx * 8 + x)];
      block[y * 8 + x] =
          static_cast<float>(sum >> 16) / 256.0f;
    }
}

}  // namespace edgestab
