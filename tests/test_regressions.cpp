// Regression and hardening tests for issues found during the calibration
// of the reproduction, plus extra property coverage on odd shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "codec/codec.h"
#include "image/metrics.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/mobilenet.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "util/rng.h"

namespace edgestab {
namespace {

// Regression: training-mode forwards of the stability-training companion
// branch used to update BatchNorm running statistics, so heavily-noised
// companions (gaussian sigma^2 = 0.04) corrupted inference behaviour and
// collapsed accuracy. The companion branch must normalize with batch
// stats but leave the running averages untouched.
TEST(Regression, BnStatsFreezeLeavesRunningAveragesUntouched) {
  BatchNorm bn("bn", 3);
  Pcg32 rng(1);
  Tensor x({8, 3, 4, 4});
  for (float& v : x.data()) v = static_cast<float>(rng.normal(2.0, 1.5));

  bn.forward_train(x);
  std::vector<float> mean_after(bn.running_mean().data().begin(),
                                bn.running_mean().data().end());
  std::vector<float> var_after(bn.running_var().data().begin(),
                               bn.running_var().data().end());

  // Frozen: a very different batch must not move the running stats.
  bn.set_update_running_stats(false);
  Tensor noisy({8, 3, 4, 4});
  for (float& v : noisy.data()) v = static_cast<float>(rng.normal(-5.0, 4.0));
  Tensor frozen_out = bn.forward_train(noisy);
  for (std::size_t i = 0; i < mean_after.size(); ++i) {
    EXPECT_FLOAT_EQ(bn.running_mean().data()[i], mean_after[i]);
    EXPECT_FLOAT_EQ(bn.running_var().data()[i], var_after[i]);
  }

  // But the frozen forward still normalizes with *batch* statistics:
  // its output is standardized regardless of the crazy input stats.
  double sum = 0.0;
  for (float v : frozen_out.data()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(frozen_out.numel()), 0.0, 0.05);

  // Unfrozen again: stats move.
  bn.set_update_running_stats(true);
  bn.forward_train(noisy);
  EXPECT_NE(bn.running_mean().data()[0], mean_after[0]);
}

// Regression: stability training with a large-noise companion must not
// destroy clean-input accuracy (the observable symptom of the BN bug).
TEST(Regression, LargeNoiseCompanionKeepsCleanAccuracy) {
  Pcg32 rng(2);
  // Trivially separable data.
  TensorDataset train;
  train.images = Tensor({96, 3, 8, 8});
  train.labels.resize(96);
  for (int i = 0; i < 96; ++i) {
    int cls = i % 3;
    train.labels[static_cast<std::size_t>(i)] = cls;
    for (int c = 0; c < 3; ++c)
      for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
          train.images.at4(i, c, y, x) =
              (c == cls ? 0.8f : -0.5f) +
              static_cast<float>(rng.normal(0, 0.1));
  }
  MobileNetConfig cfg;
  cfg.input_size = 8;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 init(3);
  m.init(init);

  CompanionFn heavy_noise = [](const Tensor& clean, int, Pcg32& r) {
    Tensor noisy = clean;
    for (float& v : noisy.data())
      v += static_cast<float>(r.normal(0.0, 1.0));  // extreme
    return noisy;
  };
  TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 16;
  tc.lr = 3e-3f;
  tc.seed = 4;
  train_stability(m, train, nullptr, StabilityLoss::kEmbedding, 0.01f,
                  heavy_noise, tc);
  Tensor probs = predict_probs(m, train.images);
  EXPECT_GT(accuracy(probs, train.labels), 0.9);
}

// Lossy codecs must handle dimensions that are not multiples of their
// block sizes (8 for JPEG/WebP-like, 16 for HEIF-like) and not change
// the image dimensions.
TEST(Regression, LossyCodecsOddDimensions) {
  Pcg32 rng(5);
  for (auto [w, h] : {std::pair{31, 17}, {9, 40}, {16, 16}, {65, 33}}) {
    Image img(w, h, 3);
    for (float& v : img.data()) v = static_cast<float>(rng.uniform());
    // Smooth it so PSNR is meaningful.
    ImageU8 u8 = to_u8(img);
    for (ImageFormat f : {ImageFormat::kJpegLike, ImageFormat::kWebpLike,
                          ImageFormat::kHeifLike}) {
      auto codec = make_codec(f, 90);
      ImageU8 out = codec->decode(codec->encode(u8));
      ASSERT_EQ(out.width(), w) << codec->name();
      ASSERT_EQ(out.height(), h) << codec->name();
    }
  }
}

// Constant-color images are the DC-only path of every transform codec;
// they must reconstruct almost exactly and compress extremely well.
TEST(Regression, ConstantImageDcOnlyPath) {
  ImageU8 img(64, 64, 3);
  for (std::size_t i = 0; i < img.size(); i += 3) {
    img.data()[i] = 180;
    img.data()[i + 1] = 90;
    img.data()[i + 2] = 40;
  }
  for (ImageFormat f : {ImageFormat::kJpegLike, ImageFormat::kWebpLike,
                        ImageFormat::kHeifLike}) {
    auto codec = make_codec(f, 85);
    Bytes data = codec->encode(img);
    EXPECT_LT(data.size(), 600u) << codec->name();
    ImageU8 out = codec->decode(data);
    double p = psnr(to_float(img), to_float(out));
    EXPECT_GT(p, 35.0) << codec->name();
  }
}

// KL loss gradients must stay finite when one distribution is nearly
// one-hot (log-of-tiny-probability territory).
TEST(Regression, KlLossStableNearOneHot) {
  Tensor lc({1, 4});
  Tensor ln({1, 4});
  lc.at2(0, 0) = 30.0f;  // saturated softmax
  ln.at2(0, 1) = 30.0f;  // disagreeing, also saturated
  Tensor gc, gn;
  double kl = kl_stability_loss(lc, ln, &gc, &gn);
  EXPECT_TRUE(std::isfinite(kl));
  EXPECT_GT(kl, 1.0);
  for (std::size_t i = 0; i < gc.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(gc[i]));
    EXPECT_TRUE(std::isfinite(gn[i]));
  }
}

// Dense layers reused across batch sizes must not carry stale caches.
TEST(Regression, LayerHandlesChangingBatchSize) {
  Dense fc("fc", 6, 3);
  Pcg32 rng(6);
  fc.init(rng);
  Tensor a({2, 6}, 0.5f);
  Tensor b({7, 6}, 0.25f);
  Tensor ya = fc.forward_train(a);
  EXPECT_EQ(ya.dim(0), 2);
  Tensor yb = fc.forward_train(b);
  EXPECT_EQ(yb.dim(0), 7);
  Tensor gb({7, 3}, 1.0f);
  Tensor gin = fc.backward(gb);
  EXPECT_EQ(gin.dim(0), 7);
}

// predict_probs with a batch size that does not divide the sample count
// must classify the ragged tail too.
TEST(Regression, PredictProbsRaggedTail) {
  MobileNetConfig cfg;
  cfg.input_size = 8;
  cfg.num_classes = 3;
  cfg.width = 0.5f;
  cfg.embedding_dim = 8;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 rng(7);
  m.init(rng);
  Tensor x({5, 3, 8, 8});
  for (float& v : x.data()) v = static_cast<float>(rng.normal());
  Tensor probs = predict_probs(m, x, /*batch_size=*/2);
  ASSERT_EQ(probs.dim(0), 5);
  for (int i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 3; ++j) sum += probs.at2(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

}  // namespace
}  // namespace edgestab
