// NN library tests: finite-difference gradient checks for every layer and
// loss, optimizer convergence, serialization round-trips, and training
// smoke tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "nn/block.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/mobilenet.h"
#include "nn/model.h"
#include "nn/optim.h"
#include "nn/trainer.h"
#include "tensor/backend.h"
#include "util/alloc_track.h"
#include "util/rng.h"

namespace edgestab {
namespace {

Tensor random_tensor(std::vector<int> shape, Pcg32& rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (float& v : t.data())
    v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

/// Scalar projection loss: L = sum_i r_i * y_i with fixed coefficients r.
/// Gradient w.r.t. y is exactly r, so model.backward(r) yields analytic
/// gradients to compare against central finite differences.
class GradCheck {
 public:
  GradCheck(Model& model, Tensor input, std::uint64_t seed)
      : model_(model), input_(std::move(input)) {
    Pcg32 rng(seed, 99);
    Tensor out = model_.forward_train(input_);
    coeffs_ = random_tensor(out.shape(), rng);
  }

  double loss() {
    Tensor out = model_.forward_train(input_);
    double l = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i)
      l += static_cast<double>(out[i]) * coeffs_[i];
    return l;
  }

  /// Analytic gradients for all params and the input.
  Tensor analytic_input_grad() {
    model_.zero_grads();
    model_.forward_train(input_);
    return model_.backward(coeffs_);
  }

  /// Relative discrepancy between the analytic gradient of entry `slot`
  /// and a central finite difference, minimized over several step sizes.
  /// ReLU6 kinks make any single eps unreliable (the one-sided derivative
  /// is genuinely different within eps of a kink); a real backward bug
  /// disagrees at *every* step size, a kink crossing passes at a smaller
  /// one.
  double min_discrepancy(float* slot, double analytic) {
    double best = std::numeric_limits<double>::infinity();
    for (double eps : {1e-2, 2e-3, 5e-4}) {
      float orig = *slot;
      *slot = orig + static_cast<float>(eps);
      double lp = loss();
      *slot = orig - static_cast<float>(eps);
      double lm = loss();
      *slot = orig;
      double numeric = (lp - lm) / (2 * eps);
      double denom = std::max({std::abs(numeric), std::abs(analytic), 1.0});
      best = std::min(best, std::abs(analytic - numeric) / denom);
    }
    return best;
  }

  /// Verify dL/dθ for a sample of entries of every parameter.
  void check_params(int samples_per_param, double tol) {
    analytic_input_grad();
    Pcg32 pick(123);
    for (Param* p : model_.params()) {
      auto w = p->value.data();
      auto g = p->grad.data();
      int n_check = std::min<int>(samples_per_param,
                                  static_cast<int>(w.size()));
      for (int s = 0; s < n_check; ++s) {
        std::size_t j = pick.uniform_int(
            static_cast<std::uint32_t>(w.size()));
        EXPECT_LT(min_discrepancy(&w[j], g[j]), tol)
            << p->name << "[" << j << "] analytic=" << g[j];
      }
    }
  }

  /// Verify dL/dx for a sample of input entries.
  void check_input(int samples, double tol) {
    Tensor gin = analytic_input_grad();
    Pcg32 pick(321);
    for (int s = 0; s < samples; ++s) {
      std::size_t j =
          pick.uniform_int(static_cast<std::uint32_t>(input_.numel()));
      EXPECT_LT(min_discrepancy(&input_[j], gin[j]), tol)
          << "input[" << j << "]";
    }
  }

 private:
  Model& model_;
  Tensor input_;
  Tensor coeffs_;
};

Model single_layer_model(LayerPtr layer) {
  Model m;
  m.add(std::move(layer));
  Pcg32 rng(7);
  m.init(rng);
  return m;
}

TEST(GradCheckLayers, Conv2D) {
  Model m = single_layer_model(
      std::make_unique<Conv2D>("c", 2, 3, 3, 1, 1, /*use_bias=*/true));
  Pcg32 rng(11);
  GradCheck gc(m, random_tensor({2, 2, 5, 5}, rng), 1);
  gc.check_params(12, 2e-2);
  gc.check_input(12, 2e-2);
}

TEST(GradCheckLayers, Conv2DStride2) {
  Model m = single_layer_model(
      std::make_unique<Conv2D>("c", 3, 4, 3, 2, 1, /*use_bias=*/false));
  Pcg32 rng(12);
  GradCheck gc(m, random_tensor({2, 3, 8, 8}, rng), 2);
  gc.check_params(12, 2e-2);
  gc.check_input(12, 2e-2);
}

TEST(GradCheckLayers, DepthwiseConv) {
  Model m = single_layer_model(std::make_unique<DepthwiseConv2D>(
      "d", 3, 3, 1, 1, /*use_bias=*/true));
  Pcg32 rng(13);
  GradCheck gc(m, random_tensor({2, 3, 6, 6}, rng), 3);
  gc.check_params(12, 2e-2);
  gc.check_input(12, 2e-2);
}

TEST(GradCheckLayers, DepthwiseConvStride2) {
  Model m = single_layer_model(std::make_unique<DepthwiseConv2D>(
      "d", 2, 3, 2, 1, /*use_bias=*/false));
  Pcg32 rng(14);
  GradCheck gc(m, random_tensor({1, 2, 7, 7}, rng), 4);
  gc.check_params(12, 2e-2);
  gc.check_input(12, 2e-2);
}

TEST(GradCheckLayers, Dense) {
  Model m = single_layer_model(std::make_unique<Dense>("fc", 6, 4));
  Pcg32 rng(15);
  GradCheck gc(m, random_tensor({3, 6}, rng), 5);
  gc.check_params(12, 2e-2);
  gc.check_input(12, 2e-2);
}

TEST(GradCheckLayers, BatchNorm4D) {
  Model m = single_layer_model(std::make_unique<BatchNorm>("bn", 3));
  Pcg32 rng(16);
  GradCheck gc(m, random_tensor({4, 3, 4, 4}, rng), 6);
  gc.check_params(6, 3e-2);
  gc.check_input(12, 3e-2);
}

TEST(GradCheckLayers, ReLU6) {
  Model m = single_layer_model(std::make_unique<ReLU>(6.0f));
  Pcg32 rng(17);
  // Scale 3 ensures values both below 0 and above 6 appear.
  GradCheck gc(m, random_tensor({2, 3, 4, 4}, rng, 3.0), 7);
  gc.check_input(16, 2e-2);
}

TEST(GradCheckLayers, GlobalAvgPool) {
  Model m = single_layer_model(std::make_unique<GlobalAvgPool>());
  Pcg32 rng(18);
  GradCheck gc(m, random_tensor({2, 3, 4, 4}, rng), 8);
  gc.check_input(12, 1e-2);
}

TEST(GradCheckLayers, InvertedResidualWithSkip) {
  Model m = single_layer_model(
      std::make_unique<InvertedResidual>("ir", 4, 4, 2, 1));
  Pcg32 rng(19);
  GradCheck gc(m, random_tensor({2, 4, 5, 5}, rng), 9);
  gc.check_params(8, 4e-2);
  gc.check_input(10, 4e-2);
}

TEST(GradCheckLayers, InvertedResidualStride2NoSkip) {
  Model m = single_layer_model(
      std::make_unique<InvertedResidual>("ir", 3, 5, 2, 2));
  Pcg32 rng(20);
  GradCheck gc(m, random_tensor({2, 3, 6, 6}, rng), 10);
  gc.check_params(8, 4e-2);
  gc.check_input(10, 4e-2);
}

TEST(GradCheckLayers, FullMiniModel) {
  MobileNetConfig cfg;
  cfg.input_size = 16;
  cfg.num_classes = 4;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 rng(21);
  m.init(rng);
  GradCheck gc(m, random_tensor({3, 3, 16, 16}, rng), 11);
  gc.check_params(4, 6e-2);
  gc.check_input(6, 6e-2);
}

// ---- Loss gradients ---------------------------------------------------------

TEST(GradCheckLoss, CrossEntropy) {
  Pcg32 rng(30);
  Tensor logits = random_tensor({4, 5}, rng);
  std::vector<int> labels{0, 2, 4, 1};
  Tensor probs, grad;
  cross_entropy_loss(logits, labels, probs, grad);
  const double eps = 1e-3;
  for (std::size_t j = 0; j < logits.numel(); ++j) {
    float orig = logits[j];
    Tensor p2, g2;
    logits[j] = orig + static_cast<float>(eps);
    double lp = cross_entropy_loss(logits, labels, p2, g2);
    logits[j] = orig - static_cast<float>(eps);
    double lm = cross_entropy_loss(logits, labels, p2, g2);
    logits[j] = orig;
    EXPECT_NEAR(grad[j], (lp - lm) / (2 * eps), 2e-3);
  }
}

TEST(GradCheckLoss, KlStability) {
  Pcg32 rng(31);
  Tensor lc = random_tensor({3, 4}, rng);
  Tensor ln = random_tensor({3, 4}, rng);
  Tensor gc, gn;
  kl_stability_loss(lc, ln, &gc, &gn);
  const double eps = 1e-3;
  for (std::size_t j = 0; j < lc.numel(); ++j) {
    float orig = lc[j];
    lc[j] = orig + static_cast<float>(eps);
    double lp = kl_stability_loss(lc, ln, nullptr, nullptr);
    lc[j] = orig - static_cast<float>(eps);
    double lm = kl_stability_loss(lc, ln, nullptr, nullptr);
    lc[j] = orig;
    EXPECT_NEAR(gc[j], (lp - lm) / (2 * eps), 2e-3) << "clean logit " << j;
  }
  for (std::size_t j = 0; j < ln.numel(); ++j) {
    float orig = ln[j];
    ln[j] = orig + static_cast<float>(eps);
    double lp = kl_stability_loss(lc, ln, nullptr, nullptr);
    ln[j] = orig - static_cast<float>(eps);
    double lm = kl_stability_loss(lc, ln, nullptr, nullptr);
    ln[j] = orig;
    EXPECT_NEAR(gn[j], (lp - lm) / (2 * eps), 2e-3) << "noisy logit " << j;
  }
}

TEST(GradCheckLoss, EmbeddingDistance) {
  Pcg32 rng(32);
  Tensor ec = random_tensor({3, 6}, rng);
  Tensor en = random_tensor({3, 6}, rng);
  Tensor gc, gn;
  embedding_distance_loss(ec, en, &gc, &gn);
  const double eps = 1e-3;
  for (std::size_t j = 0; j < ec.numel(); ++j) {
    float orig = ec[j];
    ec[j] = orig + static_cast<float>(eps);
    double lp = embedding_distance_loss(ec, en, nullptr, nullptr);
    ec[j] = orig - static_cast<float>(eps);
    double lm = embedding_distance_loss(ec, en, nullptr, nullptr);
    ec[j] = orig;
    EXPECT_NEAR(gc[j], (lp - lm) / (2 * eps), 2e-3);
    EXPECT_NEAR(gn[j], -gc[j], 1e-6);
  }
}

TEST(Loss, KlZeroForIdenticalLogits) {
  Pcg32 rng(33);
  Tensor l = random_tensor({2, 5}, rng);
  EXPECT_NEAR(kl_stability_loss(l, l, nullptr, nullptr), 0.0, 1e-9);
}

TEST(Loss, EmbeddingZeroForIdentical) {
  Pcg32 rng(34);
  Tensor e = random_tensor({2, 5}, rng);
  EXPECT_NEAR(embedding_distance_loss(e, e, nullptr, nullptr), 0.0, 1e-3);
}

TEST(Loss, AccuracyAndArgmax) {
  Tensor logits({2, 3});
  logits.at2(0, 1) = 5.0f;
  logits.at2(1, 2) = 5.0f;
  EXPECT_EQ(argmax_rows(logits), (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 0.5);
}

// ---- Optimizers ------------------------------------------------------------

// Minimize ||w - target||^2 with each optimizer.
void optimize_quadratic(Optimizer& opt, Param& p,
                        const std::vector<float>& target, int steps) {
  for (int s = 0; s < steps; ++s) {
    p.zero_grad();
    for (std::size_t i = 0; i < target.size(); ++i)
      p.grad[i] = 2.0f * (p.value[i] - target[i]);
    opt.step();
  }
}

TEST(Optim, SgdConvergesOnQuadratic) {
  Param p("w", {4});
  std::vector<float> target{1.0f, -2.0f, 0.5f, 3.0f};
  Sgd sgd({&p}, 0.05f, 0.9f);
  optimize_quadratic(sgd, p, target, 200);
  for (std::size_t i = 0; i < target.size(); ++i)
    EXPECT_NEAR(p.value[i], target[i], 1e-3);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  Param p("w", {4});
  std::vector<float> target{1.0f, -2.0f, 0.5f, 3.0f};
  Adam adam({&p}, 0.05f);
  optimize_quadratic(adam, p, target, 500);
  for (std::size_t i = 0; i < target.size(); ++i)
    EXPECT_NEAR(p.value[i], target[i], 5e-3);
}

// ---- Model infrastructure ----------------------------------------------------

TEST(Model, SaveLoadRoundTrip) {
  MobileNetConfig cfg;
  cfg.input_size = 16;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model a = build_mini_mobilenet_v2(cfg);
  Pcg32 rng(40);
  a.init(rng);
  Tensor x = random_tensor({2, 3, 16, 16}, rng);
  Tensor ya = a.infer(x);

  Bytes state = a.save_state();
  Model b = build_mini_mobilenet_v2(cfg);
  Pcg32 rng2(999);
  b.init(rng2);
  b.load_state(state);
  Tensor yb = b.infer(x);
  ASSERT_TRUE(ya.same_shape(yb));
  for (std::size_t i = 0; i < ya.numel(); ++i)
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(Model, LoadRejectsDifferentTopology) {
  MobileNetConfig a_cfg;
  a_cfg.input_size = 16;
  a_cfg.num_classes = 3;
  a_cfg.width = 0.5f;
  a_cfg.embedding_dim = 8;
  Model a = build_mini_mobilenet_v2(a_cfg);
  Pcg32 rng(41);
  a.init(rng);
  Bytes state = a.save_state();

  MobileNetConfig b_cfg = a_cfg;
  b_cfg.num_classes = 4;
  Model b = build_mini_mobilenet_v2(b_cfg);
  EXPECT_THROW(b.load_state(state), CheckError);
}

TEST(Model, EmbeddingTapCaptured) {
  MobileNetConfig cfg;
  cfg.input_size = 16;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 rng(42);
  m.init(rng);
  Tensor x = random_tensor({2, 3, 16, 16}, rng);
  m.forward_train(x);
  ASSERT_FALSE(m.embedding().empty());
  EXPECT_EQ(m.embedding().dim(0), 2);
  EXPECT_EQ(m.embedding().dim(1), 8);
  // Embedding is post-ReLU: non-negative.
  for (std::size_t i = 0; i < m.embedding().numel(); ++i)
    EXPECT_GE(m.embedding()[i], 0.0f);
}

// ---- Eval forward: the per-lane activation arena -----------------------------

class BackendGuard {
 public:
  BackendGuard() : prev_(active_backend()) {}
  ~BackendGuard() { set_active_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  BackendKind prev_;
};

std::vector<BackendKind> available_tiers() {
  std::vector<BackendKind> tiers;
  for (BackendKind kind :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kInt8})
    if (backend_available(kind)) tiers.push_back(kind);
  return tiers;
}

Model arena_test_model() {
  Model m = build_mini_mobilenet_v2(MobileNetConfig{});
  Pcg32 rng(55);
  m.init(rng);
  return m;
}

/// `model.infer(x)` on a new thread, whose arena has never been used.
Tensor infer_on_fresh_lane(const Model& model, const Tensor& x) {
  Tensor out;
  std::thread([&] { out = model.infer(x); }).join();
  return out;
}

/// Row `i` of a [N,...] batch as a [1,...] batch.
Tensor row_of(const Tensor& batch, int i) {
  std::vector<int> shape = batch.shape();
  shape[0] = 1;
  Tensor row(shape);
  std::copy_n(batch.raw() + static_cast<std::size_t>(i) * row.numel(),
              row.numel(), row.raw());
  return row;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

TEST(EvalArena, InterleavedBatchesMatchFreshReferenceInEveryTier) {
  BackendGuard guard;
  const Model model = arena_test_model();
  for (BackendKind tier : available_tiers()) {
    set_active_backend(tier);
    Pcg32 rng(56);
    // Large, single, large, small: each call reuses buffers grown (and
    // left dirty) by the calls before it.
    for (int batch : {40, 1, 40, 3}) {
      const Tensor x = random_tensor({batch, 3, 32, 32}, rng);
      const Tensor got = model.infer(x);
      ASSERT_EQ(got.dim(0), batch);
      EXPECT_TRUE(bit_equal(got, infer_on_fresh_lane(model, x)))
          << backend_name(tier) << " batch " << batch;
      // The float tiers are row-independent end to end, so every row
      // also equals its own batch-1 forward. The int8 Dense scales its
      // activations over the whole batch, so there only the batch as a
      // whole has a reference.
      if (tier == BackendKind::kInt8) continue;
      for (int i = 0; i < batch; i += 7) {
        const Tensor one = model.infer(row_of(x, i));
        EXPECT_EQ(std::memcmp(one.raw(),
                              got.raw() + static_cast<std::size_t>(i) *
                                              one.numel(),
                              one.numel() * sizeof(float)),
                  0)
            << backend_name(tier) << " batch " << batch << " row " << i;
      }
    }
  }
}

/// Counts tracked allocations (util/alloc_track.h) while installed.
struct TrackedAllocCounter {
  static inline std::size_t count = 0;
  static void on_alloc(AllocSite, std::size_t) { ++count; }
  TrackedAllocCounter() {
    count = 0;
    set_alloc_hooks(&hooks);
  }
  ~TrackedAllocCounter() { set_alloc_hooks(nullptr); }
  AllocHooks hooks{&on_alloc, nullptr};
};

TEST(EvalArena, SteadyStateForwardAllocatesOnlyTheLogits) {
  BackendGuard guard;
  const Model model = arena_test_model();
  for (BackendKind tier : available_tiers()) {
    set_active_backend(tier);
    Pcg32 rng(57);
    for (int batch : {1, 8}) {
      const Tensor x = random_tensor({batch, 3, 32, 32}, rng);
      model.infer(x);  // grows the arena to this geometry
      TrackedAllocCounter counter;
      const Tensor logits = model.infer(x);
      EXPECT_LE(TrackedAllocCounter::count, 1u)
          << backend_name(tier) << " batch " << batch;
      EXPECT_EQ(logits.dim(0), batch);
    }
  }
}

TEST(EvalArena, ResidualPinSurvivesPingPong) {
  EvalArena arena;
  const float in[4] = {1, 2, 3, 4};
  arena.load(in, {2, {1, 4}});
  arena.pin_residual();
  for (int step = 0; step < 3; ++step) {  // three producers in a row
    const float* src = arena.x();
    float* dst = arena.next({2, {1, 4}});
    for (int i = 0; i < 4; ++i) dst[i] = src[i] * 2.0f;
    arena.advance();
  }
  arena.add_residual();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(arena.x()[i], in[i] * 9.0f);
  arena.pin_residual();
  EXPECT_THROW(arena.x_inplace(), CheckError);
}

// ---- Training smoke ----------------------------------------------------------

/// Trivially separable dataset: class = brightest channel.
TensorDataset make_channel_dataset(int n, int size, Pcg32& rng) {
  TensorDataset ds;
  ds.images = Tensor({n, 3, size, size});
  ds.labels.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    int cls = static_cast<int>(rng.uniform_int(3u));
    ds.labels[static_cast<std::size_t>(i)] = cls;
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x) {
          float base = (c == cls) ? 0.7f : -0.5f;
          ds.images.at4(i, c, y, x) =
              base + static_cast<float>(rng.normal(0.0, 0.15));
        }
  }
  return ds;
}

TEST(Trainer, LearnsSeparableTask) {
  Pcg32 rng(50);
  TensorDataset train = make_channel_dataset(120, 8, rng);
  TensorDataset val = make_channel_dataset(60, 8, rng);

  MobileNetConfig cfg;
  cfg.input_size = 8;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 init_rng(51);
  m.init(init_rng);

  TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 16;
  tc.lr = 3e-3f;
  tc.seed = 52;
  TrainStats stats = train_classifier(m, train, &val, tc);
  EXPECT_GT(stats.final_val_accuracy, 0.9);
}

TEST(Trainer, StabilityTrainingRunsAndImprovesInvariance) {
  Pcg32 rng(60);
  TensorDataset train = make_channel_dataset(96, 8, rng);

  MobileNetConfig cfg;
  cfg.input_size = 8;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 init_rng(61);
  m.init(init_rng);

  CompanionFn gaussian = [](const Tensor& clean, int, Pcg32& r) {
    Tensor noisy = clean;
    for (float& v : noisy.data())
      v += static_cast<float>(r.normal(0.0, 0.2));
    return noisy;
  };

  TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 16;
  tc.lr = 3e-3f;
  tc.seed = 62;
  TrainStats stats = train_stability(m, train, nullptr, StabilityLoss::kKl,
                                     1.0f, gaussian, tc);
  ASSERT_EQ(stats.epochs.size(), 6u);
  for (const auto& e : stats.epochs) {
    EXPECT_TRUE(std::isfinite(e.loss));
    EXPECT_GE(e.stability_loss, 0.0);
  }

  // The real invariance property: compared with plain fine-tuning from
  // the same initialization, the stability-trained model's predictions
  // must move less when the input is perturbed.
  Model plain = build_mini_mobilenet_v2(cfg);
  Pcg32 init_rng2(61);
  plain.init(init_rng2);
  TrainStats plain_stats =
      train_classifier(plain, train, nullptr, tc);
  (void)plain_stats;

  auto mean_noise_kl = [&](Model& model) {
    Pcg32 noise_rng(63);
    Tensor noisy = train.images;
    for (float& v : noisy.data())
      v += static_cast<float>(noise_rng.normal(0.0, 0.2));
    Tensor p_clean = predict_probs(model, train.images);
    Tensor p_noisy = predict_probs(model, noisy);
    double kl = 0.0;
    for (int i = 0; i < p_clean.dim(0); ++i)
      for (int j = 0; j < p_clean.dim(1); ++j) {
        double p = std::max<double>(p_clean.at2(i, j), 1e-9);
        double q = std::max<double>(p_noisy.at2(i, j), 1e-9);
        kl += p * (std::log(p) - std::log(q));
      }
    return kl / p_clean.dim(0);
  };
  EXPECT_LT(mean_noise_kl(m), mean_noise_kl(plain));
}

TEST(Trainer, EmbeddingLossPathRuns) {
  Pcg32 rng(70);
  TensorDataset train = make_channel_dataset(64, 8, rng);
  MobileNetConfig cfg;
  cfg.input_size = 8;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 init_rng(71);
  m.init(init_rng);

  CompanionFn gaussian = [](const Tensor& clean, int, Pcg32& r) {
    Tensor noisy = clean;
    for (float& v : noisy.data())
      v += static_cast<float>(r.normal(0.0, 0.2));
    return noisy;
  };
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.lr = 1e-3f;
  tc.seed = 72;
  TrainStats stats = train_stability(
      m, train, nullptr, StabilityLoss::kEmbedding, 0.01f, gaussian, tc);
  for (const auto& e : stats.epochs) EXPECT_TRUE(std::isfinite(e.loss));
}

TEST(Trainer, PredictProbsRowsSumToOne) {
  MobileNetConfig cfg;
  cfg.input_size = 8;
  cfg.num_classes = 5;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 rng(80);
  m.init(rng);
  Tensor x = random_tensor({7, 3, 8, 8}, rng);
  Tensor probs = predict_probs(m, x, /*batch_size=*/3);
  ASSERT_EQ(probs.dim(0), 7);
  ASSERT_EQ(probs.dim(1), 5);
  for (int i = 0; i < 7; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 5; ++j) sum += probs.at2(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Trainer, DeterministicAcrossRuns) {
  Pcg32 rng(90);
  TensorDataset train = make_channel_dataset(48, 8, rng);
  MobileNetConfig cfg;
  cfg.input_size = 8;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;

  auto run = [&]() {
    Model m = build_mini_mobilenet_v2(cfg);
    Pcg32 init_rng(91);
    m.init(init_rng);
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 16;
    tc.lr = 1e-3f;
    tc.seed = 92;
    train_classifier(m, train, nullptr, tc);
    return m.save_state();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace edgestab
