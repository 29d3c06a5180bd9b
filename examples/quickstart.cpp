// Quickstart: render a scene, photograph it with two simulated phones,
// classify both photos, and compute the instability of a small batch.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The first run trains the shared base model (a few minutes) and caches
// it in .edgestab_cache; later runs start instantly.
#include <cstdio>

#include "core/experiment.h"
#include "core/workspace.h"
#include "data/labels.h"

using namespace edgestab;

int main() {
  // 1. The shared fixed-weight classifier (MobileNetV2-style).
  Workspace workspace;
  Model model = workspace.base_model();

  // 2. Two phones from the paper's fleet.
  std::vector<PhoneProfile> fleet = end_to_end_fleet();
  const PhoneProfile& samsung = find_phone(fleet, "Samsung Galaxy S10");
  const PhoneProfile& iphone = find_phone(fleet, "iPhone XR");

  // 3. Photograph the same displayed scene with both.
  SceneSpec spec;
  spec.class_id = kWaterBottle;
  spec.instance_seed = 7;
  Image scene = render_scene(spec, 96);
  Image emission = display_on_screen(scene, ScreenConfig{});

  Pcg32 rng_s(1, samsung.noise_stream);
  Pcg32 rng_i(1, iphone.noise_stream);
  Capture photo_s = take_photo(samsung, emission, rng_s);
  Capture photo_i = take_photo(iphone, emission, rng_i);
  std::printf("Samsung stored %zu bytes of %s; iPhone stored %zu bytes of %s\n",
              photo_s.file.size(), format_name(photo_s.format).c_str(),
              photo_i.file.size(), format_name(photo_i.format).c_str());

  // 4. Classify both captures.
  std::vector<Tensor> inputs{
      capture_to_input(decode_capture(photo_s, JpegDecodeOptions{})),
      capture_to_input(decode_capture(photo_i, JpegDecodeOptions{}))};
  auto preds = classify_inputs(model, inputs);
  std::printf("ground truth: %s\n", class_name(spec.class_id).c_str());
  std::printf("  Samsung -> %-14s (%.2f)\n",
              class_name(preds[0].predicted()).c_str(),
              preds[0].confidence());
  std::printf("  iPhone  -> %-14s (%.2f)\n",
              class_name(preds[1].predicted()).c_str(),
              preds[1].confidence());

  // 5. Instability over a small batch of objects.
  std::vector<Observation> observations;
  for (int obj = 0; obj < 20; ++obj) {
    SceneSpec s;
    s.class_id = target_classes()[static_cast<std::size_t>(obj) % 5];
    s.instance_seed = 100 + static_cast<std::uint64_t>(obj);
    Image em = display_on_screen(render_scene(s, 96), ScreenConfig{});
    std::vector<Tensor> batch{
        capture_to_input(decode_capture(take_photo(samsung, em, rng_s),
                                        JpegDecodeOptions{})),
        capture_to_input(decode_capture(take_photo(iphone, em, rng_i),
                                        JpegDecodeOptions{}))};
    auto p = classify_inputs(model, batch);
    for (int env = 0; env < 2; ++env) {
      Observation o;
      o.item = obj;
      o.env = env;
      o.class_id = s.class_id;
      o.predicted = p[static_cast<std::size_t>(env)].predicted();
      o.correct = prediction_correct(s.class_id, o.predicted);
      observations.push_back(o);
    }
  }
  InstabilityResult result = compute_instability(observations);
  std::printf(
      "\nover %lld objects: %lld unstable (instability %.1f%%), %lld "
      "all-correct, %lld all-wrong\n",
      result.total_items, result.unstable_items,
      result.instability() * 100.0, result.all_correct_items,
      result.all_incorrect_items);
  return 0;
}
