// Shared scaffolding for the google-benchmark micro benches, wiring them
// into the same run archive and sentinel the end-to-end benches use
// (obs/baseline.h): each micro run appends a record to
// bench_out/runs.jsonl, rewrites its BENCH_<name>.json candidate
// baseline, and declares one headline perf metric per benchmark case
// (median real ns/iteration) so `edgestab_sentinel compare` can band
// micro regressions exactly like bench regressions.
//
// Harness-owned flags (--threads, --repeats, --profile, --faults,
// --progress, --backend) are stripped before benchmark::Initialize sees
// the command line; --repeats N maps onto --benchmark_repetitions=N so
// the archived metric is a median over N library-timed repetitions.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace edgestab::bench {

/// ConsoleReporter that additionally captures every per-iteration run's
/// adjusted real time (ns/iter with the default time unit), keyed by
/// benchmark name. Aggregate rows (mean/median/stddev emitted under
/// --benchmark_repetitions) are skipped — the harness computes its own
/// median over the raw repetition samples.
class MicroCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(
      const std::vector<benchmark::BenchmarkReporter::Run>& reports)
      override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const benchmark::BenchmarkReporter::Run& r : reports) {
      if (r.run_type != benchmark::BenchmarkReporter::Run::RT_Iteration)
        continue;
      if (r.error_occurred) continue;
      samples_[r.benchmark_name()].push_back(r.GetAdjustedRealTime());
    }
  }

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Run a micro bench binary's registered benchmarks under the standard
/// Run wrapper: banner + provenance manifest + run archive + candidate
/// baseline, with `micro_ns.<case>` perf metrics for the sentinel.
/// main() should `return run_micro(...);`. The optional `post` hook runs
/// after the benchmarks and before finish() — micros use it to file
/// correctness digests (e.g. a logits fingerprint for the backend gate)
/// alongside the timing metrics.
inline int run_micro(const std::string& name, const std::string& title,
                     int argc, char** argv,
                     const std::function<void(Run&)>& post = {}) {
  Run run(name, title, argc, argv);
  // The benchmark library times its own hot loops; per-iteration stage
  // histograms and drift auditing would perturb the numbers, so both
  // stay off for micros. (The profiler, when armed via --profile,
  // aggregates in place and is cheap enough to keep.)
  obs::MetricsRegistry::global().set_enabled(false);
  obs::DriftAuditor::global().set_enabled(false);

  // Forward only the flags the harness does not own.
  std::vector<std::string> forwarded_storage;
  forwarded_storage.push_back(argc > 0 && argv[0] != nullptr ? argv[0]
                                                             : name.c_str());
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if ((arg == "--threads" || arg == "--faults" || arg == "--repeats" ||
         arg == "--backend") &&
        i + 1 < argc) {
      ++i;
      continue;
    }
    if (arg.rfind("--threads=", 0) == 0 || arg.rfind("--faults=", 0) == 0 ||
        arg.rfind("--repeats=", 0) == 0 || arg == "--progress" ||
        arg == "--profile" || arg.rfind("--profile=", 0) == 0 ||
        arg.rfind("--backend=", 0) == 0)
      continue;
    forwarded_storage.push_back(arg);
  }
  if (run.repeats() > 1)
    forwarded_storage.push_back("--benchmark_repetitions=" +
                                std::to_string(run.repeats()));
  std::vector<char*> forwarded;
  forwarded.reserve(forwarded_storage.size());
  for (std::string& s : forwarded_storage) forwarded.push_back(s.data());
  int forwarded_argc = static_cast<int>(forwarded.size());

  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                             forwarded.data()))
    return 1;

  MicroCaptureReporter reporter;
  std::size_t cases = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (cases == 0) {
    std::fprintf(stderr, "[micro] %s: no benchmarks ran\n", name.c_str());
    run.fail();
  }

  for (const auto& [case_name, samples] : reporter.samples())
    run.record_metric("micro_ns." + case_name, obs::median_of(samples),
                      obs::MetricKind::kPerf, obs::Direction::kLowerIsBetter,
                      "ns");
  if (post) post(run);
  return run.finish();
}

}  // namespace edgestab::bench
