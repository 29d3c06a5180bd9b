// In-memory span recorder and the summary arithmetic of the benchmark.
//
// The traced run wraps every call it makes into a layer in a Span
// scope: name, start, end, the enclosing span, and the allocations
// (alloc_count.h) made between open and close. Spans stay in memory and
// are written out as a Chrome trace when the run ends. A disarmed
// recorder records nothing, which is how the end-to-end runs stay
// untraced. The recorder is single-threaded: the traced replay makes
// its calls from one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.h"

namespace perfbench {

struct Span {
  int name = 0;     ///< index into SpanRecorder::names()
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  AllocTotals allocs;  ///< allocations between open and close (inclusive)

};

class SpanRecorder {
 public:
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  /// Index of `name` in the name table (added on first use).
  int intern(std::string_view name);
  const std::vector<std::string>& names() const { return names_; }

  /// Open a span nested in the innermost open one; returns its index.
  std::size_t open(int name);
  /// Close span `index`, which must be the innermost open span.
  void close(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }
  void clear();
  /// Pre-size the span store so that recording allocates nothing.
  void reserve(std::size_t spans) {
    spans_.reserve(spans);
    open_.reserve(64);
  }

  /// Self time of every span named `name`, in recording order: its
  /// duration minus the durations of its direct children.
  std::vector<double> self_ms(std::string_view name) const;
  /// Inclusive allocations of every span named `name`.
  std::vector<AllocTotals> allocs(std::string_view name) const;

  /// Chrome trace-event JSON ("X" events, one thread).
  std::string chrome_trace_json() const;

 private:
  int find(std::string_view name) const;

  bool armed_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

/// RAII span; records nothing when the recorder is disarmed.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, std::string_view name)
      : recorder_(recorder.armed() ? &recorder : nullptr) {
    if (recorder_ != nullptr) index_ = recorder_->open(recorder_->intern(name));
  }
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_ = 0;
};

/// Percentile `q` in [0, 1] by linear interpolation between the two
/// nearest order statistics (util/stats.h quantile: the rank of q is
/// q * (n - 1)); 0 for an empty sample, which a layer that did not run
/// produces.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// (max - min) / median: the spread of a small set of repeats; 0 when
/// the median is 0.
double relative_range(const std::vector<double>& values);

}  // namespace perfbench
