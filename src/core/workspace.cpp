#include "core/workspace.h"

#include <cstdio>
#include <cstdlib>

#include "isp/noise.h"
#include "obs/obs.h"
#include "util/hashing.h"
#include "util/timer.h"

namespace edgestab {

WorkspaceConfig::WorkspaceConfig() {
  model.input_size = kModelInputSize;
  model.num_classes = 12;
  model.width = 1.0f;
  model.embedding_dim = 48;

  pretrain.per_class = 300;
  pretrain.scene_size = 96;
  pretrain.seed = 1234;

  pretrain_train.epochs = 14;
  pretrain_train.batch_size = 32;
  pretrain_train.lr = 2e-3f;
  pretrain_train.lr_decay = 0.82f;
  pretrain_train.weight_decay = 1e-4f;
  pretrain_train.seed = 99;
  pretrain_train.use_adam = true;
}

Workspace::Workspace(WorkspaceConfig config) : config_(std::move(config)) {
  const char* env = std::getenv("EDGESTAB_CACHE");
  cache_dir_ = env != nullptr ? env : ".edgestab_cache";
  make_dirs(cache_dir_);
}

std::uint64_t Workspace::fingerprint() const {
  Fingerprint fp;
  fp.add("edgestab-workspace-v3");
  // Pretraining photographs part of its data through the sensor, so the
  // noise generator is part of what the cached model was trained on.
  fp.add(noise::kGenerator);
  fp.add(config_.model.input_size)
      .add(config_.model.num_classes)
      .add(static_cast<double>(config_.model.width))
      .add(config_.model.embedding_dim);
  fp.add(config_.pretrain.per_class)
      .add(config_.pretrain.scene_size)
      .add(config_.pretrain.seed)
      .add(static_cast<double>(config_.pretrain.brightness_jitter))
      .add(static_cast<double>(config_.pretrain.contrast_jitter))
      .add(static_cast<double>(config_.pretrain.noise_sigma))
      .add(static_cast<double>(config_.pretrain.color_cast))
      .add(static_cast<double>(config_.pretrain.blur_probability))
      .add(static_cast<double>(config_.pretrain.jpeg_probability))
      .add(static_cast<double>(config_.pretrain.capture_probability));
  fp.add(config_.pretrain_train.epochs)
      .add(config_.pretrain_train.batch_size)
      .add(static_cast<double>(config_.pretrain_train.lr))
      .add(static_cast<double>(config_.pretrain_train.lr_decay))
      .add(static_cast<double>(config_.pretrain_train.weight_decay))
      .add(config_.pretrain_train.seed)
      .add(static_cast<int>(config_.pretrain_train.use_adam));
  fp.add(config_.init_seed);
  return fp.value();
}

std::string key_path(const std::string& dir, const std::string& key) {
  return dir + "/" + key + ".bin";
}

bool Workspace::load_blob(const std::string& key, Bytes& out) const {
  std::string path = key_path(cache_dir_, key);
  if (!file_exists(path)) return false;
  out = read_file(path);
  return true;
}

void Workspace::store_blob(const std::string& key,
                           std::span<const std::uint8_t> data) const {
  write_file(key_path(cache_dir_, key), data);
}

Model Workspace::fresh_model() const {
  return build_mini_mobilenet_v2(config_.model);
}

Model Workspace::base_model() {
  Fingerprint fp;
  fp.add(fingerprint()).add("base-model");
  std::string key = "base_model_" + fp.hex();

  Model model = fresh_model();
  Bytes cached;
  if (load_blob(key, cached)) {
    model.load_state(cached);
    if (config_.verbose)
      std::printf("[workspace] loaded base model from cache (%s)\n",
                  key.c_str());
    return model;
  }

  if (config_.verbose)
    std::printf(
        "[workspace] training base model (first run only; cached "
        "afterwards)...\n");
  WallTimer timer;
  // One-time cached-artifact construction: its millions of forward
  // passes are not part of the run being measured, so keep them out of
  // the stage-timing histograms and the profile.
  obs::SuspendTracing suspend;
  TensorDataset train = make_pretrain_dataset(config_.pretrain);
  TensorDataset val = make_validation_dataset(config_.pretrain);
  Pcg32 init_rng(config_.init_seed);
  model.init(init_rng);
  TrainConfig tc = config_.pretrain_train;
  tc.verbose = config_.verbose;
  TrainStats stats = train_classifier(model, train, &val, tc);
  if (config_.verbose)
    std::printf("[workspace] base model ready: val_acc=%.3f (%.1fs)\n",
                stats.final_val_accuracy, timer.seconds());

  Bytes state = model.save_state();
  store_blob(key, state);
  return model;
}

}  // namespace edgestab
