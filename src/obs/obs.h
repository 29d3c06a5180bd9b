// Umbrella header + instrumentation macros for the observability layer.
//
// Hot-path sites use the macros, not the classes. A span costs only a
// relaxed atomic load until a bench enables the tracer.
//
//   {
//     ES_TRACE_SCOPE("isp", "demosaic");   // span + latency histogram
//     rgb = demosaic(raw, kind);
//   }
//   ES_COUNT("codec.bytes_encoded", out.size());
//
// ES_TRACE_SCOPE declares block-scoped locals: use it inside a braced
// scope (never as the single statement of an unbraced `if`). The
// category/name arguments must be string literals; the span feeds the
// registry histogram named "<category>.<name>", resolved once per call
// site via a static local.
//
// The same sites also feed the hot-path profiler (obs/profiler.h):
// ES_TRACE_SCOPE additionally opens a profile scope on the logical call
// tree. The profiler caches intern lookups by pointer identity, which is
// one more reason the arguments must be literals.
#pragma once

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

#ifndef ES_OBS_CONCAT
#define ES_OBS_CONCAT_INNER(a, b) a##b
#define ES_OBS_CONCAT(a, b) ES_OBS_CONCAT_INNER(a, b)
#endif

#define ES_TRACE_SCOPE(category, name)                                     \
  static ::edgestab::obs::Histogram& ES_OBS_CONCAT(es_obs_hist_,           \
                                                   __LINE__) =             \
      ::edgestab::obs::MetricsRegistry::global().histogram(category        \
                                                           "." name);      \
  ::edgestab::obs::ScopedSpan ES_OBS_CONCAT(es_obs_span_, __LINE__)(       \
      category, name, &ES_OBS_CONCAT(es_obs_hist_, __LINE__));             \
  ::edgestab::obs::ProfileScope ES_OBS_CONCAT(es_obs_pscope_,              \
                                              __LINE__)(category, name)

#define ES_COUNT(name, delta)                                              \
  do {                                                                     \
    if (::edgestab::obs::Tracer::global().enabled()) {                     \
      static ::edgestab::obs::Counter& es_obs_counter =                    \
          ::edgestab::obs::MetricsRegistry::global().counter(name);        \
      es_obs_counter.add(static_cast<std::uint64_t>(delta));               \
    }                                                                      \
  } while (0)
