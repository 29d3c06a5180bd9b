#include "nn/trainer.h"

#include <cmath>
#include <cstdio>
#include <memory>

#include "nn/loss.h"
#include "nn/optim.h"
#include "runtime/parallel.h"
#include "util/timer.h"

namespace edgestab {

namespace {

/// Gather rows `idx` of a dataset into a batch tensor + label vector.
void gather_batch(const TensorDataset& data, std::span<const int> idx,
                  Tensor& images, std::vector<int>& labels) {
  const int c = data.images.dim(1);
  const int h = data.images.dim(2);
  const int w = data.images.dim(3);
  const std::size_t sample = static_cast<std::size_t>(c) * h * w;
  images = Tensor({static_cast<int>(idx.size()), c, h, w});
  labels.resize(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::copy_n(data.images.raw() + idx[i] * sample, sample,
                images.raw() + i * sample);
    labels[i] = data.labels[static_cast<std::size_t>(idx[i])];
  }
}

std::unique_ptr<Optimizer> make_optimizer(Model& model,
                                          const TrainConfig& config) {
  if (config.use_adam)
    return std::make_unique<Adam>(model.params(), config.lr, 0.9f, 0.999f,
                                  1e-8f, config.weight_decay);
  return std::make_unique<Sgd>(model.params(), config.lr, config.momentum,
                               config.weight_decay);
}

double eval_accuracy(const Model& model, const TensorDataset& data) {
  if (data.size() == 0) return 0.0;
  Tensor probs = predict_probs(model, data.images);
  return accuracy(probs, data.labels);
}

}  // namespace

Tensor TensorDataset::sample(int i) const {
  ES_CHECK(i >= 0 && i < size());
  const int c = images.dim(1);
  const int h = images.dim(2);
  const int w = images.dim(3);
  const std::size_t n = static_cast<std::size_t>(c) * h * w;
  Tensor out({1, c, h, w});
  std::copy_n(images.raw() + i * n, n, out.raw());
  return out;
}

TrainStats train_classifier(Model& model, const TensorDataset& train,
                            const TensorDataset* val,
                            const TrainConfig& config) {
  return train_stability(model, train, val, StabilityLoss::kNone, 0.0f,
                         CompanionFn{}, config);
}

TrainStats train_stability(Model& model, const TensorDataset& train,
                           const TensorDataset* val, StabilityLoss loss,
                           float alpha, const CompanionFn& companion,
                           const TrainConfig& config) {
  ES_CHECK(train.size() > 0);
  if (loss != StabilityLoss::kNone)
    ES_CHECK_MSG(companion, "stability loss requires a companion function");

  Pcg32 rng(config.seed, 77);
  auto optimizer = make_optimizer(model, config);
  TrainStats stats;

  std::vector<int> order(static_cast<std::size_t>(train.size()));
  for (int i = 0; i < train.size(); ++i)
    order[static_cast<std::size_t>(i)] = i;

  const int c = train.images.dim(1);
  const int h = train.images.dim(2);
  const int w = train.images.dim(3);
  const std::size_t sample_n = static_cast<std::size_t>(c) * h * w;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    WallTimer timer;
    optimizer->set_learning_rate(
        config.lr * std::pow(config.lr_decay, static_cast<float>(epoch)));
    rng.shuffle(order);

    double epoch_loss = 0.0;
    double epoch_stab = 0.0;
    std::size_t correct = 0;
    int batches = 0;

    for (int start = 0; start < train.size(); start += config.batch_size) {
      int end = std::min(start + config.batch_size, train.size());
      std::span<const int> idx(order.data() + start,
                               static_cast<std::size_t>(end - start));
      Tensor images;
      std::vector<int> labels;
      gather_batch(train, idx, images, labels);

      model.zero_grads();

      if (loss == StabilityLoss::kNone) {
        Tensor logits = model.forward_train(images);
        Tensor probs, grad;
        double l0 = cross_entropy_loss(logits, labels, probs, grad);
        auto preds = argmax_rows(probs);
        for (std::size_t i = 0; i < preds.size(); ++i)
          if (preds[i] == labels[i]) ++correct;
        model.backward(grad);
        epoch_loss += l0;
      } else {
        // Build the companion batch.
        Tensor noisy({static_cast<int>(idx.size()), c, h, w});
        for (std::size_t i = 0; i < idx.size(); ++i) {
          Tensor clean({1, c, h, w});
          std::copy_n(images.raw() + i * sample_n, sample_n, clean.raw());
          Tensor comp = companion(clean, idx[i], rng);
          ES_CHECK(comp.rank() == 4 && comp.dim(0) == 1 && comp.dim(1) == c &&
                   comp.dim(2) == h && comp.dim(3) == w);
          std::copy_n(comp.raw(), sample_n, noisy.raw() + i * sample_n);
        }

        // Pass 1: noisy branch (record outputs). Running BN statistics
        // are frozen here: the companion inputs can be heavily noised
        // and must not pollute inference-time statistics.
        model.set_bn_stats_update(false);
        Tensor logits_noisy = model.forward_train(noisy);
        Tensor emb_noisy = model.embedding();
        model.set_bn_stats_update(true);

        // Pass 2: clean branch (caches now belong to the clean branch).
        Tensor logits_clean = model.forward_train(images);
        Tensor emb_clean = model.embedding();

        Tensor probs, grad_ce;
        double l0 = cross_entropy_loss(logits_clean, labels, probs, grad_ce);
        auto preds = argmax_rows(probs);
        for (std::size_t i = 0; i < preds.size(); ++i)
          if (preds[i] == labels[i]) ++correct;

        double ls = 0.0;
        Tensor grad_clean_logits, grad_noisy_logits;
        Tensor grad_clean_emb, grad_noisy_emb;
        if (loss == StabilityLoss::kKl) {
          ls = kl_stability_loss(logits_clean, logits_noisy,
                                 &grad_clean_logits, &grad_noisy_logits);
        } else {
          ls = embedding_distance_loss(emb_clean, emb_noisy, &grad_clean_emb,
                                       &grad_noisy_emb);
        }

        // Backward the clean branch with CE + α·Ls contributions.
        Tensor grad_logits = grad_ce;
        if (loss == StabilityLoss::kKl)
          grad_logits.add_scaled(grad_clean_logits, alpha);
        if (loss == StabilityLoss::kEmbedding) {
          grad_clean_emb.scale(alpha);
          model.backward(grad_logits, &grad_clean_emb);
        } else {
          model.backward(grad_logits);
        }

        // Re-forward the noisy branch to restore its caches, then
        // backward its α·Ls contribution.
        model.set_bn_stats_update(false);
        model.forward_train(noisy);
        if (loss == StabilityLoss::kKl) {
          grad_noisy_logits.scale(alpha);
          model.backward(grad_noisy_logits);
        } else {
          Tensor zero_logits(logits_clean.shape());
          grad_noisy_emb.scale(alpha);
          model.backward(zero_logits, &grad_noisy_emb);
        }
        model.set_bn_stats_update(true);

        epoch_loss += l0 + alpha * ls;
        epoch_stab += ls;
      }

      optimizer->step();
      ++batches;
    }

    EpochStats es;
    es.loss = epoch_loss / std::max(batches, 1);
    es.stability_loss = epoch_stab / std::max(batches, 1);
    es.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(train.size());
    if (val != nullptr) es.val_accuracy = eval_accuracy(model, *val);
    es.seconds = timer.seconds();
    if (config.verbose) {
      std::printf(
          "  epoch %d/%d loss=%.4f Ls=%.4f train_acc=%.3f val_acc=%.3f "
          "(%.1fs)\n",
          epoch + 1, config.epochs, es.loss, es.stability_loss,
          es.train_accuracy, es.val_accuracy, es.seconds);
      std::fflush(stdout);
    }
    stats.epochs.push_back(es);
  }

  stats.final_val_accuracy =
      stats.epochs.empty() ? 0.0 : stats.epochs.back().val_accuracy;
  return stats;
}

Tensor predict_logits(const Model& model, const Tensor& images,
                      int batch_size) {
  ES_CHECK(images.rank() == 4);
  return predict_logits(model, sample_pointers(images),
                        std::span<const int>(images.shape()).subspan(1),
                        batch_size);
}

Tensor predict_logits(const Model& model,
                      std::span<const float* const> samples,
                      std::span<const int> sample_shape, int batch_size) {
  ES_CHECK(batch_size > 0);
  const int n = static_cast<int>(samples.size());
  if (n == 0) return Tensor();

  // Inference rows are batch-independent in every tier; the dense tail
  // sees one chunk's rows at once (Model::infer). The cut count is fixed
  // — NOT derived from the lane count — so the chunk layout, and with it
  // each chunk's tracked allocations, is identical at any --threads
  // (DESIGN.md §13 determinism contract). Lanes share the
  // const model and read their chunk's samples in place: nothing is
  // copied per chunk.
  constexpr int kEvalCuts = 16;
  const int chunk = std::max(
      1, std::min(batch_size, (n + kEvalCuts - 1) / kEvalCuts));

  const std::vector<Tensor> parts = runtime::parallel_map<Tensor>(
      static_cast<std::size_t>((n + chunk - 1) / chunk),
      [&](std::size_t i) {
        const int start = static_cast<int>(i) * chunk;
        return model.infer(
            samples.subspan(static_cast<std::size_t>(start),
                            static_cast<std::size_t>(
                                std::min(chunk, n - start))),
            sample_shape);
      },
      /*grain=*/1);
  Tensor all_logits({n, parts.front().dim(1)});
  float* dst = all_logits.raw();
  for (const Tensor& part : parts)
    dst = std::copy_n(part.raw(), part.numel(), dst);
  return all_logits;
}

Tensor predict_probs(const Model& model, const Tensor& images, int batch_size) {
  Tensor logits = predict_logits(model, images, batch_size);
  if (logits.empty()) return logits;
  Tensor probs(logits.shape());
  softmax_rows(logits, probs);
  return probs;
}

std::vector<int> predict_labels(const Model& model, const Tensor& images,
                                int batch_size) {
  return argmax_rows(predict_probs(model, images, batch_size));
}

}  // namespace edgestab
