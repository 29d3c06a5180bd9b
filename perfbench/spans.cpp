#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/stats.h"

namespace perfbench {

int SpanRecorder::intern(std::string_view name) {
  const int found = find(name);
  if (found >= 0) return found;
  names_.emplace_back(name);
  return static_cast<int>(names_.size()) - 1;
}

int SpanRecorder::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  return -1;
}

std::size_t SpanRecorder::open(int name) {
  // Grow the bookkeeping first so that its own allocations fall outside
  // the new span (reserve() keeps them out of the enclosing ones too).
  Span& span = spans_.emplace_back();
  open_.push_back(spans_.size() - 1);
  span.name = name;
  span.parent =
      open_.size() < 2 ? -1 : static_cast<int>(open_[open_.size() - 2]);
  span.allocs = alloc_totals();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("span closed out of order");
  open_.pop_back();
  Span& span = spans_[index];
  span.end_ns = now_ns;
  span.allocs = alloc_totals() - span.allocs;
}

void SpanRecorder::clear() {
  spans_.clear();
  open_.clear();
}

std::vector<double> SpanRecorder::self_ms(std::string_view name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  const int id = find(name);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == id)
      out.push_back(static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns - child_ns[i]) /
                    1e6);
  return out;
}

std::vector<AllocTotals> SpanRecorder::allocs(std::string_view name) const {
  const int id = find(name);
  std::vector<AllocTotals> out;
  for (const Span& s : spans_)
    if (s.name == id) out.push_back(s.allocs);
  return out;
}

std::string SpanRecorder::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"allocs\":%llu,"
                  "\"alloc_bytes\":%llu}}",
                  i == 0 ? "" : ",",
                  names_[static_cast<std::size_t>(s.name)].c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.allocs.count),
                  static_cast<unsigned long long>(s.allocs.bytes));
    out += buf;
  }
  out += "]}\n";
  return out;
}

double percentile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : edgestab::quantile(std::move(values), q);
}

double relative_range(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return (*hi - *lo) / mid;
}

}  // namespace perfbench
