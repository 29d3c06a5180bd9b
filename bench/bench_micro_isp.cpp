// Microbenchmark: capture front-end, ISP stage costs, the develop glue
// around them and full pipeline latency.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_micro_util.h"
#include "data/dataset.h"
#include "data/labels.h"
#include "data/render.h"
#include "data/screen.h"
#include "device/capture.h"
#include "device/fleets.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "isp/software_isp.h"
#include "isp/stages.h"
#include "image/draw.h"
#include "util/rng.h"

namespace edgestab {
namespace {

RawImage bench_raw(int size) {
  Image scene(size, size, 3);
  fill_vertical_gradient(scene, {0.5f, 0.5f, 0.6f}, {0.2f, 0.25f, 0.2f});
  SensorConfig cfg;
  cfg.width = size;
  cfg.height = size;
  Pcg32 rng(13);
  return expose_sensor(scene, cfg, rng);
}

void BM_Demosaic(benchmark::State& state, DemosaicKind kind) {
  RawImage raw = bench_raw(static_cast<int>(state.range(0)));
  black_level_subtract(raw);
  for (auto _ : state) {
    Image rgb = demosaic(raw, kind);
    benchmark::DoNotOptimize(rgb);
  }
}

void BM_FullIsp(benchmark::State& state, bool opinionated) {
  RawImage raw = bench_raw(static_cast<int>(state.range(0)));
  IspConfig cfg = opinionated ? photo_isp() : magick_isp();
  for (auto _ : state) {
    Image rgb = run_isp(raw, cfg);
    benchmark::DoNotOptimize(rgb);
  }
}

void BM_SensorExposure(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  Image scene(size, size, 3, 0.4f);
  SensorConfig cfg;
  cfg.width = size;
  cfg.height = size;
  Pcg32 rng(17);
  for (auto _ : state) {
    RawImage raw = expose_sensor(scene, cfg, rng);
    benchmark::DoNotOptimize(raw);
  }
}

// The per-shot half of the sensor alone (shot noise, read noise, black
// level and the ADC) over a signal map computed once: what a soak shot
// pays in sensor.expose.
void BM_SampleSensor(benchmark::State& state) {
  int size = static_cast<int>(state.range(0));
  Image scene(size, size, 3, 0.4f);
  SensorConfig cfg;
  cfg.width = size;
  cfg.height = size;
  const Image signal = sensor_signal(scene, cfg);
  Pcg32 rng(17);
  for (auto _ : state) {
    RawImage raw = sample_sensor(signal, cfg, rng);
    benchmark::DoNotOptimize(raw);
  }
}

// The capture front end: a 96x96 stimulus shown on the 2x screen, then
// framed by a phone mount and sampled down to the 64x64 sensor.
Image bench_stimulus() {
  return render_scene({target_classes().front(), 3, 0.25f}, 96);
}

void BM_DisplayOnScreen(benchmark::State& state) {
  const Image stimulus = bench_stimulus();
  const ScreenConfig screen;
  for (auto _ : state) {
    Image emission = display_on_screen(stimulus, screen);
    benchmark::DoNotOptimize(emission);
  }
}

void BM_PhoneSignal(benchmark::State& state) {
  const Image emission = display_on_screen(bench_stimulus(), ScreenConfig{});
  const std::vector<PhoneProfile> fleet = end_to_end_fleet();
  const auto mounted =
      std::find_if(fleet.begin(), fleet.end(), [](const PhoneProfile& p) {
        return p.mount_tilt != 0.0f;
      });
  ES_CHECK(mounted != fleet.end());
  for (auto _ : state) {
    Image signal = phone_signal(*mounted, emission);
    benchmark::DoNotOptimize(signal);
  }
}

// The develop glue around the ISP and the codecs, on a 64x64 capture:
// quantizing the ISP output for the encoder, turning a decoded capture
// into a model input, the saturation stage, and the tone curve with the
// lane's curve already built (the avx2 tier's LUT; pow per value on the
// scalar tier).
Image bench_developed(int size) {
  return run_isp(bench_raw(size), photo_isp());
}

void BM_ToU8(benchmark::State& state) {
  const Image rgb = bench_developed(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ImageU8 bytes = to_u8(rgb);
    benchmark::DoNotOptimize(bytes);
  }
}

void BM_CaptureToInput(benchmark::State& state) {
  const ImageU8 decoded =
      to_u8(bench_developed(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    Tensor input = capture_to_input(decoded);
    benchmark::DoNotOptimize(input);
  }
}

void BM_Saturate(benchmark::State& state) {
  const Image rgb = bench_developed(static_cast<int>(state.range(0)));
  Image work = rgb;
  for (auto _ : state) {
    // Restore the input each round so every call saturates the same
    // values (the copy is a memcpy of the three planes).
    std::copy(rgb.data().begin(), rgb.data().end(), work.data().begin());
    saturate(work, 1.17f);
    benchmark::DoNotOptimize(work);
  }
}

void BM_ToneMap(benchmark::State& state) {
  const Image linear = [&] {
    Image img = bench_developed(static_cast<int>(state.range(0)));
    for (float& v : img.data()) v *= v;
    return img;
  }();
  const IspConfig cfg = photo_isp();
  Image work = linear;
  tone_map(work, cfg.gamma, cfg.s_curve);  // warm the lane's curve
  for (auto _ : state) {
    std::copy(linear.data().begin(), linear.data().end(),
              work.data().begin());
    tone_map(work, cfg.gamma, cfg.s_curve);
    benchmark::DoNotOptimize(work);
  }
}

BENCHMARK_CAPTURE(BM_Demosaic, bilinear, DemosaicKind::kBilinear)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Demosaic, malvar, DemosaicKind::kMalvar)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_FullIsp, neutral, false)->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_FullIsp, opinionated, true)->Arg(64)->Arg(128);
BENCHMARK(BM_SensorExposure)->Arg(64)->Arg(128);
BENCHMARK(BM_SampleSensor)->Arg(64);
BENCHMARK(BM_DisplayOnScreen);
BENCHMARK(BM_PhoneSignal);
BENCHMARK(BM_ToU8)->Arg(64);
BENCHMARK(BM_CaptureToInput)->Arg(64);
BENCHMARK(BM_Saturate)->Arg(64);
BENCHMARK(BM_ToneMap)->Arg(64);

}  // namespace
}  // namespace edgestab

int main(int argc, char** argv) {
  return edgestab::bench::run_micro(
      "micro_isp", "ISP micro: stage costs and full-pipeline latency", argc,
      argv);
}
