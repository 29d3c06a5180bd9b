// Umbrella header + instrumentation macros for the observability layer.
//
// Hot-path sites use the macros, not the classes. A span costs two
// relaxed atomic loads until a bench enables the metrics registry or
// the profiler.
//
//   {
//     ES_TRACE_SCOPE("isp", "demosaic");   // stage histogram + profile node
//     rgb = demosaic(raw, kind);
//   }
//   ES_COUNT("codec.bytes_encoded", out.size());
//
// ES_TRACE_SCOPE declares block-scoped locals: use it inside a braced
// scope (never as the single statement of an unbraced `if`). The
// category/name arguments must be string literals; the span feeds the
// registry histogram named "<category>.<name>", resolved once per call
// site via a static local, and the hot-path profiler (obs/profiler.h)
// node of the same label on the logical call tree. The profiler caches
// intern lookups by pointer identity, which is one more reason the
// arguments must be literals.
#pragma once

#include <cstdint>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace edgestab::obs {

/// RAII stage span: reads the steady clock once at entry and once at
/// exit and hands that one duration to every sink armed at entry — the
/// call site's stage histogram (MetricsRegistry::enabled()) and the
/// profiler's call-tree node (Profiler::enabled()). Sinks are latched at
/// construction, so muting either mid-scope never unpairs a profiler
/// begin/end. With both armed, a label's histogram count and sum equal
/// its profiler calls and inclusive time, summed over its tree nodes.
class TraceScope {
 public:
  TraceScope(const char* category, const char* name, Histogram& histogram)
      : histogram_(MetricsRegistry::global().enabled() ? &histogram
                                                       : nullptr),
        profiled_(Profiler::global().enabled()) {
    if (histogram_ == nullptr && !profiled_) return;
    start_ns_ = steady_now_ns();
    if (profiled_) Profiler::global().begin_scope(category, name, start_ns_);
  }
  ~TraceScope() {
    if (histogram_ == nullptr && !profiled_) return;
    const std::uint64_t end_ns = steady_now_ns();
    if (profiled_) Profiler::global().end_scope(end_ns);
    if (histogram_ != nullptr) histogram_->record(end_ns - start_ns_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Histogram* histogram_;
  bool profiled_;
  std::uint64_t start_ns_ = 0;
};

/// RAII guard that mutes the stage histograms, ES_COUNT and the hot-path
/// profiler for a region (nesting-safe). Used around one-time
/// cached-artifact construction, e.g. base-model pretraining, whose
/// millions of forward passes are not part of the run being measured
/// and would otherwise pollute stage timing and allocation attribution.
class SuspendTracing {
 public:
  SuspendTracing()
      : metrics_was_enabled_(MetricsRegistry::global().enabled()),
        profiler_was_enabled_(Profiler::global().enabled()) {
    MetricsRegistry::global().set_enabled(false);
    if (profiler_was_enabled_) Profiler::global().set_enabled(false);
  }
  ~SuspendTracing() {
    MetricsRegistry::global().set_enabled(metrics_was_enabled_);
    if (profiler_was_enabled_) Profiler::global().set_enabled(true);
  }

  SuspendTracing(const SuspendTracing&) = delete;
  SuspendTracing& operator=(const SuspendTracing&) = delete;

 private:
  bool metrics_was_enabled_;
  bool profiler_was_enabled_;
};

}  // namespace edgestab::obs

#ifndef ES_OBS_CONCAT
#define ES_OBS_CONCAT_INNER(a, b) a##b
#define ES_OBS_CONCAT(a, b) ES_OBS_CONCAT_INNER(a, b)
#endif

#define ES_TRACE_SCOPE(category, name)                                     \
  static ::edgestab::obs::Histogram& ES_OBS_CONCAT(es_obs_hist_,           \
                                                   __LINE__) =             \
      ::edgestab::obs::MetricsRegistry::global().histogram(category        \
                                                           "." name);      \
  ::edgestab::obs::TraceScope ES_OBS_CONCAT(es_obs_span_, __LINE__)(       \
      category, name, ES_OBS_CONCAT(es_obs_hist_, __LINE__))

#define ES_COUNT(name, delta)                                              \
  do {                                                                     \
    if (::edgestab::obs::MetricsRegistry::global().enabled()) {            \
      static ::edgestab::obs::Counter& es_obs_counter =                    \
          ::edgestab::obs::MetricsRegistry::global().counter(name);        \
      es_obs_counter.add(static_cast<std::uint64_t>(delta));               \
    }                                                                      \
  } while (0)
