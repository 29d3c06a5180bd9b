#include "obs/metrics.h"

#include <bit>
#include <cmath>

#include "util/csv.h"

namespace edgestab::obs {

namespace {

void atomic_min(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (value < cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed))
    ;
}

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed))
    ;
}

}  // namespace

int Histogram::bucket_index(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  int msb = 63 - std::countl_zero(value);
  int shift = msb - kSubBucketBits;
  int sub = static_cast<int>((value >> shift) & (kSubBuckets - 1));
  return ((msb - kSubBucketBits + 1) << kSubBucketBits) + sub;
}

void Histogram::bucket_bounds(int index, double& lower, double& width) {
  // Small values have their own unit bucket and are exact.
  if (index < kSubBuckets) {
    lower = static_cast<double>(index);
    width = 0.0;
    return;
  }
  int octave = index >> kSubBucketBits;
  int sub = index & (kSubBuckets - 1);
  int msb = octave + kSubBucketBits - 1;
  lower = std::ldexp(1.0, msb) +
          std::ldexp(static_cast<double>(sub), msb - kSubBucketBits);
  width = std::ldexp(1.0, msb - kSubBucketBits);
}

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

double Histogram::quantile(double q) const {
  // Snapshot the buckets and derive the population from the snapshot:
  // with concurrent record()s the separate count_ counter can disagree
  // with the bucket mass (all relaxed atomics), and a target computed
  // from it could overshoot what the bucket walk will ever accumulate.
  std::uint64_t snapshot[kBucketCount];
  std::uint64_t n = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    snapshot[i] = buckets_[i].load(std::memory_order_relaxed);
    n += snapshot[i];
  }
  if (n == 0) return 0.0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  auto target = static_cast<std::uint64_t>(std::ceil(q * n));
  if (target == 0) target = 1;
  double lo = static_cast<double>(min_.load(std::memory_order_relaxed));
  double hi = static_cast<double>(max_.load(std::memory_order_relaxed));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    std::uint64_t in_bucket = snapshot[i];
    if (in_bucket == 0) continue;
    if (seen + in_bucket >= target) {
      // Interpolate within the containing bucket: the k-th of its
      // `in_bucket` samples sits at fraction (k - 0.5) / in_bucket of
      // the bucket span. Clamping into the observed [min, max] keeps
      // first/last-bucket estimates honest — p99 of a distribution whose
      // tail shares one bucket now lands at/below the true max instead
      // of the bucket edge, and q=1 returns the exact max.
      double lower, width;
      bucket_bounds(i, lower, width);
      double frac = (static_cast<double>(target - seen) - 0.5) /
                    static_cast<double>(in_bucket);
      double value = lower + frac * width;
      return value < lo ? lo : (value > hi ? hi : value);
    }
    seen += in_bucket;
  }
  return hi;
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  s.count = count();
  s.sum = sum();
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    s.p50 = p50();
    s.p95 = p95();
    s.p99 = p99();
  }
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)
    out.emplace_back(name, counter->value());
  return out;
}

std::vector<std::pair<std::string, HistogramSummary>>
MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, HistogramSummary>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_)
    out.emplace_back(name, histogram->summary());
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

CsvWriter stage_timing_csv(const MetricsRegistry& registry) {
  CsvWriter csv({"stage", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms",
                 "p99_ms"});
  auto ms = [](double ns) { return ns / 1e6; };
  for (const auto& [name, s] : registry.histograms()) {
    csv.add_row({name, std::to_string(s.count),
                 std::to_string(ms(static_cast<double>(s.sum))),
                 std::to_string(ms(s.mean())), std::to_string(ms(s.p50)),
                 std::to_string(ms(s.p95)), std::to_string(ms(s.p99))});
  }
  return csv;
}

}  // namespace edgestab::obs
