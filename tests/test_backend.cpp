// Compute-backend tests (DESIGN.md §15): selection / fallback semantics,
// scalar-vs-avx2 kernel agreement within float tolerance, int8
// quantization round-trip properties, and the within-backend determinism
// contract — bit-identical logits at 1/2/8 pool lanes and for any batch
// composition, for every backend available on this host.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "nn/mobilenet.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "runtime/thread_pool.h"
#include "tensor/backend.h"
#include "tensor/int8.h"
#include "tensor/ops.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace edgestab {
namespace {

/// The backend is process-global state; every test that changes it goes
/// through this guard so a failing assertion can't leak a non-scalar
/// tier into later tests.
class BackendGuard {
 public:
  BackendGuard() : prev_(active_backend()) {}
  ~BackendGuard() { set_active_backend(prev_); }

 private:
  BackendKind prev_;
};

Tensor random_tensor(std::vector<int> shape, Pcg32& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.data())
    v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

std::uint64_t digest(const Tensor& t) {
  Fingerprint fp;
  for (std::size_t i = 0; i < t.numel(); ++i)
    fp.add(static_cast<double>(t[i]));
  return fp.value();
}

/// Relative L2 error ||a - b|| / ||b||.
double rel_l2(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return std::sqrt(num / std::max(den, 1e-30));
}

// ---------------------------------------------------------------------------
// Selection / dispatch.

TEST(Backend, ScalarIsDefault) {
  EXPECT_EQ(active_backend(), BackendKind::kScalar);
  EXPECT_FALSE(use_avx2());
  EXPECT_FALSE(use_int8());
}

TEST(Backend, ParseAcceptsCanonicalNamesOnly) {
  BackendKind k = BackendKind::kScalar;
  EXPECT_TRUE(parse_backend("scalar", k));
  EXPECT_EQ(k, BackendKind::kScalar);
  EXPECT_TRUE(parse_backend("avx2", k));
  EXPECT_EQ(k, BackendKind::kAvx2);
  EXPECT_TRUE(parse_backend("int8", k));
  EXPECT_EQ(k, BackendKind::kInt8);

  k = BackendKind::kScalar;
  EXPECT_FALSE(parse_backend("AVX2", k));  // canonical lower-case only
  EXPECT_FALSE(parse_backend("neon", k));
  EXPECT_FALSE(parse_backend("", k));
  EXPECT_EQ(k, BackendKind::kScalar);  // untouched on failure
}

TEST(Backend, NamesRoundTrip) {
  for (BackendKind k :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kInt8}) {
    BackendKind parsed = BackendKind::kScalar;
    ASSERT_TRUE(parse_backend(backend_name(k), parsed));
    EXPECT_EQ(parsed, k);
  }
}

TEST(Backend, AvailabilityRules) {
  EXPECT_TRUE(backend_available(BackendKind::kScalar));
  EXPECT_TRUE(backend_available(BackendKind::kInt8));
  // avx2 needs both the compiled-in TUs and CPUID support.
  EXPECT_EQ(backend_available(BackendKind::kAvx2),
            kAvx2CompiledIn && cpu_supports_avx2());
}

TEST(Backend, SetActiveHonorsRequestOrFallsBackToScalar) {
  BackendGuard guard;
  EXPECT_EQ(set_active_backend(BackendKind::kInt8), BackendKind::kInt8);
  EXPECT_TRUE(use_int8());
  EXPECT_FALSE(use_avx2());

  const BackendKind got = set_active_backend(BackendKind::kAvx2);
  if (backend_available(BackendKind::kAvx2)) {
    EXPECT_EQ(got, BackendKind::kAvx2);
    EXPECT_TRUE(use_avx2());
  } else {
    EXPECT_EQ(got, BackendKind::kScalar);  // graceful fallback, no crash
    EXPECT_EQ(active_backend(), BackendKind::kScalar);
  }

  EXPECT_EQ(set_active_backend(BackendKind::kScalar), BackendKind::kScalar);
}

// ---------------------------------------------------------------------------
// Scalar vs avx2 kernel agreement. The tiers intentionally differ in
// accumulation order, so agreement is float-tolerance, not bit-equality.

TEST(BackendAvx2, GemmMatchesScalarWithinTolerance) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  BackendGuard guard;
  Pcg32 rng(2024, 7);
  // Odd sizes exercise the 6/2/1-row and vector-tail remainder paths.
  const int m = 37, k = 61, n = 53;
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);
  Tensor c_scalar({m, n});
  Tensor c_avx2({m, n});

  set_active_backend(BackendKind::kScalar);
  gemm(a.raw(), b.raw(), c_scalar.raw(), m, k, n);
  set_active_backend(BackendKind::kAvx2);
  gemm(a.raw(), b.raw(), c_avx2.raw(), m, k, n);

  EXPECT_LT(rel_l2(c_avx2, c_scalar), 1e-6);
  EXPECT_NE(digest(c_avx2), 0u);
}

TEST(BackendAvx2, GemmAccumulateAddsIntoC) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  BackendGuard guard;
  Pcg32 rng(11, 3);
  const int m = 9, k = 17, n = 23;
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);
  Tensor base = random_tensor({m, n}, rng);

  Tensor expect = base;  // scalar reference: base + A*B
  set_active_backend(BackendKind::kScalar);
  gemm(a.raw(), b.raw(), expect.raw(), m, k, n, /*accumulate=*/true);

  Tensor got = base;
  set_active_backend(BackendKind::kAvx2);
  gemm(a.raw(), b.raw(), got.raw(), m, k, n, /*accumulate=*/true);

  EXPECT_LT(rel_l2(got, expect), 1e-6);
}

TEST(BackendAvx2, GemmIsDeterministic) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  BackendGuard guard;
  set_active_backend(BackendKind::kAvx2);
  Pcg32 rng(5, 5);
  const int m = 30, k = 40, n = 50;
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);
  Tensor c1({m, n}), c2({m, n});
  gemm(a.raw(), b.raw(), c1.raw(), m, k, n);
  gemm(a.raw(), b.raw(), c2.raw(), m, k, n);
  EXPECT_EQ(digest(c1), digest(c2));
}

TEST(BackendAvx2, BlockedMatmulModeStaysOnScalarPath) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  BackendGuard guard;
  Pcg32 rng(77, 1);
  const int m = 12, k = 33, n = 20;
  Tensor a = random_tensor({m, k}, rng);
  Tensor b = random_tensor({k, n}, rng);

  // kBlocked models a per-phone accumulation order; the avx2 tier must
  // not capture it, so results are bit-identical across backends.
  Tensor c_scalar({m, n});
  set_active_backend(BackendKind::kScalar);
  gemm(a.raw(), b.raw(), c_scalar.raw(), m, k, n, false,
       MatmulMode::kBlocked);

  Tensor c_avx2({m, n});
  set_active_backend(BackendKind::kAvx2);
  gemm(a.raw(), b.raw(), c_avx2.raw(), m, k, n, false, MatmulMode::kBlocked);

  EXPECT_EQ(digest(c_avx2), digest(c_scalar));
}

TEST(BackendAvx2, DepthwiseLayerMatchesScalarWithinTolerance) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  BackendGuard guard;
  // Covers the padded-plane 3x3 stride-1/2 fast paths and the generic
  // gather path (kernel 5), each with awkward non-multiple-of-8 widths.
  struct Case {
    int kernel, stride, pad, h, w;
  };
  for (const Case& c : {Case{3, 1, 1, 13, 19}, Case{3, 2, 1, 14, 21},
                        Case{5, 1, 2, 11, 17}}) {
    Pcg32 rng(31 * c.kernel + c.stride, 9);
    Model layer;  // the layer alone, through the model's eval forward
    layer.add(std::make_unique<DepthwiseConv2D>(
        "dw", /*channels=*/4, c.kernel, c.stride, c.pad, /*use_bias=*/true));
    layer.init(rng);
    Tensor input = random_tensor({2, 4, c.h, c.w}, rng);

    set_active_backend(BackendKind::kScalar);
    Tensor ref = layer.infer(input);
    set_active_backend(BackendKind::kAvx2);
    Tensor got = layer.infer(input);

    EXPECT_LT(rel_l2(got, ref), 1e-6)
        << "kernel=" << c.kernel << " stride=" << c.stride;
  }
}

TEST(BackendAvx2, ConvLayerMatchesScalarWithinTolerance) {
  if (!backend_available(BackendKind::kAvx2))
    GTEST_SKIP() << "avx2 tier unavailable on this host";
  BackendGuard guard;
  Pcg32 rng(42, 13);
  // 3x3 im2col path and the 1x1 identity-cols shortcut.
  for (int kernel : {3, 1}) {
    Model layer;
    layer.add(std::make_unique<Conv2D>("conv", /*in_c=*/5, /*out_c=*/7,
                                       kernel, /*stride=*/1,
                                       /*pad=*/kernel / 2,
                                       /*use_bias=*/true));
    layer.init(rng);
    Tensor input = random_tensor({2, 5, 15, 18}, rng);

    set_active_backend(BackendKind::kScalar);
    Tensor ref = layer.infer(input);
    set_active_backend(BackendKind::kAvx2);
    Tensor got = layer.infer(input);

    EXPECT_LT(rel_l2(got, ref), 1e-6) << "kernel=" << kernel;
  }
}

// ---------------------------------------------------------------------------
// int8 quantization properties.

TEST(BackendInt8, TensorScaleAndQuantizeRoundTrip) {
  Pcg32 rng(8, 8);
  std::vector<float> x(257);
  for (float& v : x) v = static_cast<float>(rng.normal(0.0, 2.0));
  x[100] = -5.5f;  // known extremum

  const float scale = int8::tensor_scale(x.data(), x.size());
  EXPECT_FLOAT_EQ(scale, 5.5f / 127.0f);

  std::vector<std::int8_t> q(x.size());
  int8::quantize(x.data(), x.size(), scale, q.data());

  int max_code = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_code = std::max(max_code, std::abs(static_cast<int>(q[i])));
    // Round-trip error of symmetric round-to-nearest is at most half a
    // quantization step.
    EXPECT_LE(std::abs(x[i] - static_cast<float>(q[i]) * scale),
              scale * 0.5f + 1e-6f);
  }
  EXPECT_EQ(max_code, 127);  // the extremum maps to the last code
}

TEST(BackendInt8, ZeroTensorQuantizesToZeroCodes) {
  std::vector<float> x(64, 0.0f);
  EXPECT_EQ(int8::tensor_scale(x.data(), x.size()), 0.0f);
  std::vector<std::int8_t> q(x.size(), 42);
  int8::quantize(x.data(), x.size(), 0.0f, q.data());
  for (std::int8_t c : q) EXPECT_EQ(c, 0);
}

TEST(BackendInt8, PerRowAndPerColScales) {
  // Two rows with different magnitudes must get independent scales.
  const float m[6] = {1.0f, -2.0f, 0.5f, 100.0f, 50.0f, -127.0f};
  std::int8_t q[6];
  float row_scales[2];
  int8::quantize_rows(m, 2, 3, q, row_scales);
  EXPECT_FLOAT_EQ(row_scales[0], 2.0f / 127.0f);
  EXPECT_FLOAT_EQ(row_scales[1], 1.0f);
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[5], -127);

  float col_scales[3];
  int8::quantize_cols(m, 2, 3, q, col_scales);
  EXPECT_FLOAT_EQ(col_scales[0], 100.0f / 127.0f);
  EXPECT_FLOAT_EQ(col_scales[1], 50.0f / 127.0f);
  EXPECT_FLOAT_EQ(col_scales[2], 1.0f);
}

TEST(BackendInt8, Sat32SaturatesAtAccumulatorRange) {
  const std::int64_t lo = std::numeric_limits<std::int32_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(int8::sat32(0), 0);
  EXPECT_EQ(int8::sat32(hi), hi);
  EXPECT_EQ(int8::sat32(lo), lo);
  EXPECT_EQ(int8::sat32(hi + 1), hi);
  EXPECT_EQ(int8::sat32(lo - 1), lo);
  EXPECT_EQ(int8::sat32(std::numeric_limits<std::int64_t>::max()), hi);
}

TEST(BackendInt8, GemmS8MatchesInt64Reference) {
  Pcg32 rng(3, 3);
  const int m = 7, k = 31, n = 11;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a)
    v = static_cast<std::int8_t>(static_cast<int>(rng.normal(0, 50)) % 128);
  for (auto& v : b)
    v = static_cast<std::int8_t>(static_cast<int>(rng.normal(0, 50)) % 128);

  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
  int8::gemm_s8(a.data(), b.data(), c.data(), m, k, n);

  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (int p = 0; p < k; ++p)
        acc += static_cast<std::int64_t>(a[static_cast<std::size_t>(i) * k +
                                           p]) *
               b[static_cast<std::size_t>(p) * n + j];
      EXPECT_EQ(c[static_cast<std::size_t>(i) * n + j], int8::sat32(acc));
    }
}

TEST(BackendInt8, GemmS8SaturatesLongAllMaxDotProduct) {
  // 127 * 127 * 140000 ≈ 2.26e9 overflows int32; the contract is an
  // exact int64 sum saturated once at the end, so the result must be
  // exactly INT32_MAX — not a wrapped or incrementally-clamped value.
  const int k = 140000;
  std::vector<std::int8_t> a(static_cast<std::size_t>(k), 127);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k), 127);
  std::int32_t c = 0;
  int8::gemm_s8(a.data(), b.data(), &c, 1, k, 1);
  EXPECT_EQ(c, std::numeric_limits<std::int32_t>::max());

  for (auto& v : b) v = -127;
  int8::gemm_s8(a.data(), b.data(), &c, 1, k, 1);
  EXPECT_EQ(c, std::numeric_limits<std::int32_t>::min());
}

TEST(BackendInt8, ConvLayerInt8CloseToScalarAndDeterministic) {
  BackendGuard guard;
  Pcg32 rng(21, 2);
  Model layer;
  layer.add(std::make_unique<Conv2D>("conv", /*in_c=*/4, /*out_c=*/6,
                                     /*kernel=*/3, /*stride=*/1, /*pad=*/1,
                                     /*use_bias=*/true));
  layer.init(rng);
  Tensor input = random_tensor({2, 4, 12, 12}, rng);

  set_active_backend(BackendKind::kScalar);
  Tensor ref = layer.infer(input);

  set_active_backend(BackendKind::kInt8);
  Tensor q1 = layer.infer(input);
  Tensor q2 = layer.infer(input);

  // Quantized inference is an approximation of the float path...
  EXPECT_LT(rel_l2(q1, ref), 0.05);
  // ...but a bit-exact one within its own tier.
  EXPECT_EQ(digest(q1), digest(q2));
}

TEST(BackendInt8, TrainingForwardIgnoresInt8Backend) {
  BackendGuard guard;
  Pcg32 rng(19, 4);
  Dense layer("fc", 10, 5);
  layer.init(rng);
  Tensor input = random_tensor({3, 10}, rng);

  set_active_backend(BackendKind::kScalar);
  Tensor ref = layer.forward_train(input);
  set_active_backend(BackendKind::kInt8);
  // Quantized kernels are inference-only; training forwards must stay on
  // the float path bit-for-bit so gradients stay consistent.
  Tensor got = layer.forward_train(input);
  EXPECT_EQ(digest(got), digest(ref));
}

// ---------------------------------------------------------------------------
// Within-backend determinism across pool lanes: the logits digest of a
// parallel eval sweep must not depend on --threads for ANY backend.

TEST(BackendDeterminism, LogitsDigestStableAcrossLaneCounts) {
  BackendGuard guard;
  MobileNetConfig config;
  config.width = 0.25f;
  Model model = build_mini_mobilenet_v2(config);
  Pcg32 init_rng(1234, 1);
  model.init(init_rng);

  Pcg32 data_rng(99, 6);
  Tensor images = random_tensor({8, 3, config.input_size, config.input_size},
                                data_rng, 0.25);

  const int prev_threads = runtime::ThreadPool::global().threads();
  for (BackendKind kind :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kInt8}) {
    if (!backend_available(kind)) continue;
    set_active_backend(kind);
    std::uint64_t first = 0;
    for (int threads : {1, 2, 8}) {
      runtime::ThreadPool::set_global_threads(threads);
      const std::uint64_t d =
          digest(predict_logits(model, images, /*batch_size=*/2));
      if (threads == 1)
        first = d;
      else
        EXPECT_EQ(d, first) << backend_name(kind) << " diverged at --threads "
                            << threads;
    }
  }
  runtime::ThreadPool::set_global_threads(prev_threads);
}

// A row's logits must not depend on which other rows share its
// Model::infer call: the service classifies in one-row chunks and the
// batch experiments in wide ones, and both must see the same logits.
TEST(BackendDeterminism, RowLogitsIndependentOfBatchComposition) {
  BackendGuard guard;
  MobileNetConfig config;
  config.width = 0.25f;
  Model model = build_mini_mobilenet_v2(config);
  Pcg32 init_rng(4321, 1);
  model.init(init_rng);

  constexpr int kRows = 12;
  Pcg32 data_rng(77, 2);
  // Rows of very different magnitude, so a scale shared across rows
  // would move the small ones.
  std::vector<Tensor> rows;
  for (int i = 0; i < kRows; ++i)
    rows.push_back(random_tensor({1, 3, config.input_size, config.input_size},
                                 data_rng, 0.05 + 0.4 * (i % 4)));
  const std::vector<int> shape = {3, config.input_size, config.input_size};

  for (BackendKind kind :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kInt8}) {
    if (!backend_available(kind)) continue;
    set_active_backend(kind);
    std::vector<Tensor> alone;
    for (const Tensor& row : rows) {
      const float* sample = row.raw();
      alone.push_back(model.infer(std::span<const float* const>(&sample, 1),
                                  shape));
    }
    Pcg32 pick(5, static_cast<std::uint64_t>(kind));
    for (int trial = 0; trial < 20; ++trial) {
      // A random batch of 2..8 rows, drawn with repeats.
      const int n = 2 + static_cast<int>(pick.uniform_int(7));
      std::vector<int> index;
      std::vector<const float*> samples;
      for (int j = 0; j < n; ++j) {
        index.push_back(static_cast<int>(pick.uniform_int(kRows)));
        samples.push_back(rows[static_cast<std::size_t>(index.back())].raw());
      }
      const Tensor batch = model.infer(samples, shape);
      const int classes = batch.dim(1);
      for (int j = 0; j < n; ++j) {
        const Tensor& ref = alone[static_cast<std::size_t>(index[
            static_cast<std::size_t>(j)])];
        for (int c = 0; c < classes; ++c)
          ASSERT_EQ(std::bit_cast<std::uint32_t>(batch.at2(j, c)),
                    std::bit_cast<std::uint32_t>(ref.at2(0, c)))
              << backend_name(kind) << " trial " << trial << " row " << j
              << " (input " << index[static_cast<std::size_t>(j)]
              << ") class " << c;
      }
    }
  }
}

}  // namespace
}  // namespace edgestab
