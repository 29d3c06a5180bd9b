#include "data/dataset.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codec/jpeg_like.h"
#include "data/labels.h"
#include "device/capture.h"
#include "image/color.h"
#include "image/resize.h"

namespace edgestab {

namespace {

// The model input is resize(..., kArea) followed by `* 2 - 1`, fused into
// one pass: the boxes (area_span), the reciprocal and each box sum's
// (row, column) order are resize's, so every input value is
// bit-identical to resizing first. `row_of(yy, rows)` points rows[0..2]
// at source row yy of the three float channels.
template <typename RowOf>
Tensor area_input(int w, int h, int size, RowOf row_of) {
  Tensor out({1, 3, size, size});
  const float sx_scale = static_cast<float>(w) / size;
  const float sy_scale = static_cast<float>(h) / size;
  // Per-lane column boxes [x0, x1), reciprocals and the three channels'
  // running sums; reused across calls like the resampling row tables.
  thread_local std::vector<int> x0, x1;
  thread_local std::vector<float> inv, sums;
  const std::size_t n = static_cast<std::size_t>(size);
  x0.resize(n);
  x1.resize(n);
  inv.resize(n);
  sums.resize(3 * n);
  for (int x = 0; x < size; ++x) {
    const AreaSpan span = area_span(x, sx_scale, w);
    x0[x] = span.lo;
    x1[x] = span.hi;
  }
  const float* rows[3];
  for (int y = 0; y < size; ++y) {
    const auto [y0, y1] = area_span(y, sy_scale, h);
    for (int x = 0; x < size; ++x)
      inv[x] = 1.0f / static_cast<float>((x1[x] - x0[x]) * (y1 - y0));
    std::fill(sums.begin(), sums.end(), 0.0f);
    for (int yy = y0; yy < y1; ++yy) {
      row_of(yy, rows);
      for (int c = 0; c < 3; ++c) {
        float* sum = sums.data() + c * n;
        for (int x = 0; x < size; ++x)
          for (int xx = x0[x]; xx < x1[x]; ++xx) sum[x] += rows[c][xx];
      }
    }
    for (int c = 0; c < 3; ++c) {
      const float* sum = sums.data() + c * n;
      float* dst = out.raw() + (c * n + static_cast<std::size_t>(y)) * n;
      for (int x = 0; x < size; ++x)
        dst[x] = sum[x] * inv[x] * 2.0f - 1.0f;
    }
  }
  return out;
}

}  // namespace

// At the source size the boxes are single pixels with reciprocal 1, so
// the pass reproduces resize's identity copy exactly.
Tensor image_to_input(const Image& display_referred, int input_size) {
  ES_CHECK(display_referred.channels() == 3);
  const int w = display_referred.width();
  return area_input(w, display_referred.height(), input_size,
                    [&](int yy, const float** rows) {
                      const std::size_t at = static_cast<std::size_t>(yy) * w;
                      for (int c = 0; c < 3; ++c)
                        rows[c] = display_referred.plane(c).data() + at;
                    });
}

// Expands one interleaved u8 row at a time into per-lane float rows with
// to_float's `/ 255.0f`, so no full float image is materialised.
Tensor capture_to_input(const ImageU8& decoded, int input_size) {
  ES_CHECK(decoded.channels() == 3);
  const int w = decoded.width();
  thread_local std::vector<float> expanded;
  expanded.resize(3 * static_cast<std::size_t>(w));
  return area_input(w, decoded.height(), input_size,
                    [&](int yy, const float** rows) {
                      const std::uint8_t* src =
                          decoded.data().data() +
                          static_cast<std::size_t>(yy) * w * 3;
                      float* r = expanded.data();
                      float* g = r + w;
                      float* b = g + w;
                      for (int x = 0; x < w; ++x) {
                        r[x] = static_cast<float>(src[3 * x]) / 255.0f;
                        g[x] = static_cast<float>(src[3 * x + 1]) / 255.0f;
                        b[x] = static_cast<float>(src[3 * x + 2]) / 255.0f;
                      }
                      rows[0] = r;
                      rows[1] = g;
                      rows[2] = b;
                    });
}

Tensor stack_inputs(const std::vector<Tensor>& samples) {
  ES_CHECK(!samples.empty());
  const Tensor& first = samples.front();
  ES_CHECK(first.rank() == 4 && first.dim(0) == 1);
  Tensor out({static_cast<int>(samples.size()), first.dim(1), first.dim(2),
              first.dim(3)});
  const std::size_t n = first.numel();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ES_CHECK(samples[i].same_shape(first));
    std::copy_n(samples[i].raw(), n, out.raw() + i * n);
  }
  return out;
}

namespace {

/// A neutral camera (defaults everywhere) used only for augmentation —
/// deliberately not a member of any experimental fleet.
PhoneProfile reference_camera() {
  PhoneProfile p;
  p.name = "reference";
  p.storage_format = ImageFormat::kJpegLike;
  p.storage_quality = 90;
  return p;
}

TensorDataset build_dataset(const PretrainConfig& config,
                            std::uint64_t seed_base, std::uint64_t rng_seed) {
  Pcg32 rng(rng_seed, 5);
  PhoneProfile camera = reference_camera();
  std::vector<Tensor> samples;
  std::vector<int> labels;
  samples.reserve(static_cast<std::size_t>(config.per_class) * kNumClasses);

  for (int cls = 0; cls < kNumClasses; ++cls) {
    for (int i = 0; i < config.per_class; ++i) {
      SceneSpec spec;
      spec.class_id = cls;
      spec.instance_seed = seed_base + static_cast<std::uint64_t>(i);
      spec.view_angle = static_cast<float>(rng.uniform(-1.0, 1.0));
      Image scene = render_scene(spec, config.scene_size);

      // Photometric augmentation + mild acquisition noise. The goal is
      // ImageNet-like invariance to small color/tone/compression shifts:
      // without it the model's decision margins are so thin that *every*
      // device rendition flips predictions and instability saturates far
      // above the paper's 14-17% band.
      float contrast = 1.0f + static_cast<float>(rng.uniform(
                                  -config.contrast_jitter,
                                  config.contrast_jitter));
      float brightness = static_cast<float>(rng.uniform(
          -config.brightness_jitter, config.brightness_jitter));
      adjust_contrast_brightness(scene, contrast, brightness);
      if (config.color_cast > 0.0f) {
        for (int c = 0; c < 3; ++c) {
          float gain = 1.0f + static_cast<float>(rng.uniform(
                                  -config.color_cast, config.color_cast));
          for (float& v : scene.plane(c)) v *= gain;
        }
        scene.clamp();
      }
      if (config.blur_probability > 0.0f &&
          rng.bernoulli(config.blur_probability)) {
        int small = std::max(8, config.scene_size / 2);
        scene = resize(resize(scene, small, small, ResizeFilter::kArea),
                       config.scene_size, config.scene_size,
                       ResizeFilter::kBilinear);
      }
      if (config.noise_sigma > 0.0f) {
        for (float& v : scene.data())
          v += static_cast<float>(rng.normal(0.0, config.noise_sigma));
        scene.clamp();
      }
      if (config.capture_probability > 0.0f &&
          rng.bernoulli(config.capture_probability)) {
        // Photograph the scene with the reference camera: linear light in,
        // sensor + ISP + JPEG out.
        Image linear = srgb_decode(scene);
        Capture shot = take_photo(camera, linear, rng);
        scene = to_float(decode_capture(shot, JpegDecodeOptions{}));
      } else if (config.jpeg_probability > 0.0f &&
                 rng.bernoulli(config.jpeg_probability)) {
        int quality = rng.uniform_int(65, 95);
        JpegLikeCodec codec(quality);
        scene = to_float(codec.decode(codec.encode(to_u8(scene))));
      }

      samples.push_back(image_to_input(scene));
      labels.push_back(cls);
    }
  }

  TensorDataset ds;
  ds.images = stack_inputs(samples);
  ds.labels = std::move(labels);
  return ds;
}

}  // namespace

TensorDataset make_pretrain_dataset(const PretrainConfig& config) {
  return build_dataset(config, /*seed_base=*/1000000, config.seed);
}

TensorDataset make_validation_dataset(const PretrainConfig& config) {
  PretrainConfig val = config;
  val.per_class = std::max(10, config.per_class / 5);
  // Disjoint instance seeds and a different augmentation stream.
  return build_dataset(val, /*seed_base=*/9000000, config.seed ^ 0xabcdef);
}

}  // namespace edgestab
