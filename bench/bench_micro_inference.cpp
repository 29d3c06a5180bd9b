// Microbenchmark: MiniMobileNetV2 inference latency per compute backend
// (the §7 SoC modeling lever) and per batch size.
#include <benchmark/benchmark.h>

#include "bench_micro_util.h"
#include "nn/mobilenet.h"
#include "nn/trainer.h"
#include "util/hashing.h"
#include "util/rng.h"

namespace edgestab {
namespace {

Model make_model() {
  MobileNetConfig cfg;
  Model m = build_mini_mobilenet_v2(cfg);
  Pcg32 rng(3);
  m.init(rng);
  return m;
}

void BM_Forward(benchmark::State& state, MatmulMode mode) {
  Model model = make_model();
  model.set_matmul_mode(mode);
  int batch = static_cast<int>(state.range(0));
  Pcg32 rng(5);
  Tensor input({batch, 3, 32, 32});
  for (float& v : input.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    Tensor logits = model.infer(input);
    benchmark::DoNotOptimize(logits);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_TrainStep(benchmark::State& state) {
  Model model = make_model();
  int batch = static_cast<int>(state.range(0));
  Pcg32 rng(5);
  Tensor input({batch, 3, 32, 32});
  for (float& v : input.data()) v = static_cast<float>(rng.normal());
  Tensor grad({batch, 12});
  for (float& v : grad.data()) v = static_cast<float>(rng.normal(0, 0.1));
  for (auto _ : state) {
    model.zero_grads();
    Tensor logits = model.forward_train(input);
    Tensor gin = model.backward(grad);
    benchmark::DoNotOptimize(gin);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

BENCHMARK_CAPTURE(BM_Forward, standard, MatmulMode::kStandard)
    ->Arg(1)->Arg(16)->Arg(64);
BENCHMARK_CAPTURE(BM_Forward, blocked, MatmulMode::kBlocked)
    ->Arg(1)->Arg(16)->Arg(64);
BENCHMARK(BM_TrainStep)->Arg(16)->Arg(32);

/// Fixed-seed forward pass fingerprint under the active kernel tier —
/// the backend gate's within-backend determinism check: two runs with
/// the same --backend must archive the same digest, runs on different
/// tiers are expected to differ.
std::string logits_digest() {
  Model model = make_model();
  Pcg32 rng(7);
  Tensor input({4, 3, 32, 32});
  for (float& v : input.data()) v = static_cast<float>(rng.normal());
  Tensor logits = model.infer(input);
  Fingerprint fp;
  for (float v : logits.data()) fp.add(static_cast<double>(v));
  return fp.hex();
}

}  // namespace
}  // namespace edgestab

int main(int argc, char** argv) {
  return edgestab::bench::run_micro(
      "micro_inference", "Inference micro: backend and batch-size latency",
      argc, argv, [](edgestab::bench::Run& run) {
        run.record_digest_metric("logits_digest",
                                 edgestab::logits_digest());
      });
}
