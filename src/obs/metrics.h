// Named counters and log-bucketed latency histograms.
//
// MetricsRegistry is the process-wide metric store behind the pipeline
// instrumentation: counters track volumes (shots captured, bytes encoded,
// inferences run), histograms track per-stage latency and answer
// p50/p95/p99 queries. Both are lock-free on the record path (atomics
// only); name lookup takes a mutex, so instrumentation sites resolve a
// metric once (the ES_* macros cache a reference in a static local).
//
// Histogram buckets are logarithmic — kSubBuckets linear sub-buckets per
// power of two — giving a bounded relative quantile error (<= 1/16 with 8
// sub-buckets) over the full uint64 range in 512 fixed slots.
//
// Contention: counters and histogram buckets are single cache lines, so
// many lanes hammering the *same* metric ping-pong that line. The
// parallel runtime's workloads record at per-item granularity (span
// exits, per-comparison drift units) — microseconds of work per record —
// so the relaxed fetch_add is noise there; don't put a record() inside a
// per-pixel loop. Readers are merely snapshot-consistent: quantile()
// walks a bucket snapshot (so its target can't overshoot the observed
// mass mid-record), but a summary taken while writers are active may
// mix slightly different populations across count/sum/quantiles.
// Summaries meant for artifact files must be taken after the parallel
// region joins — every bench exporter runs post-join, where totals and
// quantiles are exact and deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace edgestab {
class CsvWriter;
}  // namespace edgestab

namespace edgestab::obs {

/// Monotonically increasing counter (thread-safe).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time summary of a histogram.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Log-bucketed histogram over non-negative 64-bit values (the span
/// instrumentation records nanoseconds). Thread-safe; record() is a
/// handful of relaxed atomics.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 8 per octave
  static constexpr int kBucketCount = 512;

  void record(std::uint64_t value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate, q in [0,1]; values below kSubBuckets are exact,
  /// larger ones interpolate within their bucket (bounded relative
  /// error) and are clamped into the observed [min, max] — so q=1
  /// returns the exact max and no estimate escapes the data range.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  HistogramSummary summary() const;
  void reset();

  /// Bucket index for a value (exposed for tests).
  static int bucket_index(std::uint64_t value);

 private:
  static void bucket_bounds(int index, double& lower, double& width);

  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Process-wide registry of named metrics. References returned by
/// counter()/histogram() stay valid for the registry's lifetime.
///
/// Disabled by default: the span macros (ES_TRACE_SCOPE's stage
/// histogram) and ES_COUNT record nothing until a bench opts in with
/// set_enabled(true); SuspendTracing mutes them around one-time
/// cached-artifact construction. Direct record()/add() calls are not
/// gated.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sorted (name, value) snapshots for exporters; zero-count entries are
  /// included (a registered metric that never fired is itself a signal).
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, HistogramSummary>> histograms() const;

  /// Zero every metric (tests; the names stay registered). Leaves
  /// enabled() untouched.
  void reset();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Flat stage-timing table from every histogram in the registry, one row
/// per stage with count/total/mean/p50/p95/p99 in milliseconds
/// (histogram values are nanoseconds, the unit TraceScope records).
CsvWriter stage_timing_csv(const MetricsRegistry& registry);

}  // namespace edgestab::obs
