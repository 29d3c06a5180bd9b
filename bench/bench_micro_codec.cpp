// Microbenchmark: codec encode/decode throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include "bench_micro_util.h"
#include "codec/codec.h"
#include "codec/jpeg_like.h"
#include "image/draw.h"
#include "util/rng.h"

namespace edgestab {
namespace {

ImageU8 bench_image(int size) {
  Image img(size, size, 3);
  fill_vertical_gradient(img, {0.6f, 0.65f, 0.8f}, {0.3f, 0.28f, 0.22f});
  Pcg32 rng(7);
  for (int i = 0; i < 5; ++i)
    paint_sdf(img,
              SdfCircle{static_cast<float>(rng.uniform(0.1, 0.9)) * size,
                        static_cast<float>(rng.uniform(0.1, 0.9)) * size,
                        static_cast<float>(rng.uniform(0.05, 0.2)) * size},
              {static_cast<float>(rng.uniform()),
               static_cast<float>(rng.uniform()),
               static_cast<float>(rng.uniform())});
  texture_speckle(img, SdfRoundRect{size / 2.0f, size / 2.0f, size / 2.0f,
                                    size / 2.0f, 1.0f},
                  0.02f, 3.0f, 11);
  return to_u8(img);
}

void BM_Encode(benchmark::State& state, ImageFormat format) {
  ImageU8 img = bench_image(static_cast<int>(state.range(0)));
  auto codec = make_codec(format);
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes data = codec->encode(img);
    bytes = data.size();
    benchmark::DoNotOptimize(data);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}

void BM_Decode(benchmark::State& state, ImageFormat format) {
  ImageU8 img = bench_image(static_cast<int>(state.range(0)));
  auto codec = make_codec(format);
  Bytes data = codec->encode(img);
  for (auto _ : state) {
    ImageU8 out = codec->decode(data);
    benchmark::DoNotOptimize(out);
  }
}

/// One JPEG stream decoded by each OS-decoder variant (table 5's
/// chroma upsampling filters and fixed-point IDCT).
void BM_DecodeJpegVariant(benchmark::State& state,
                          JpegDecodeOptions options) {
  const JpegLikeCodec codec(90, options);
  const Bytes data = codec.encode(bench_image(64));
  for (auto _ : state) {
    ImageU8 out = codec.decode(data);
    benchmark::DoNotOptimize(out);
  }
}

BENCHMARK_CAPTURE(BM_Encode, jpeg, ImageFormat::kJpegLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Encode, png, ImageFormat::kPngLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Encode, webp, ImageFormat::kWebpLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Encode, heif, ImageFormat::kHeifLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Decode, jpeg, ImageFormat::kJpegLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Decode, png, ImageFormat::kPngLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Decode, webp, ImageFormat::kWebpLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_Decode, heif, ImageFormat::kHeifLike)
    ->Arg(64)->Arg(128);
BENCHMARK_CAPTURE(BM_DecodeJpegVariant, nearest,
                  JpegDecodeOptions{JpegDecodeOptions::Upsample::kNearest,
                                    false});
BENCHMARK_CAPTURE(BM_DecodeJpegVariant, bilinear,
                  JpegDecodeOptions{JpegDecodeOptions::Upsample::kBilinear,
                                    false});
BENCHMARK_CAPTURE(BM_DecodeJpegVariant, fixed_idct,
                  JpegDecodeOptions{JpegDecodeOptions::Upsample::kNearest,
                                    true});

}  // namespace
}  // namespace edgestab

int main(int argc, char** argv) {
  return edgestab::bench::run_micro(
      "micro_codec", "Codec micro: encode/decode throughput per format", argc,
      argv);
}
