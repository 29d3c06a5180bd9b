// In-process span tracing for the capture -> ISP -> codec -> inference
// pipeline.
//
// The paper's method is *attribution*: instability (and wall time) must be
// pinned on concrete pipeline stages. ScopedSpan records the interval a
// stage ran, per thread and with nesting depth, into lock-light per-thread
// buffers owned by the process-wide Tracer. Spans are exported as Chrome
// `trace_event` JSON (chrome://tracing, Perfetto) and, aggregated, as the
// per-stage latency histograms in MetricsRegistry.
//
// Instrumentation sites use the ES_TRACE_SCOPE macro from obs/obs.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace edgestab::obs {

class Histogram;
struct TraceThreadBuffer;  // defined in trace.cpp

/// One completed span. `category`/`name` must be string literals (the
/// instrumentation macros guarantee this); events store the pointers only.
struct SpanEvent {
  const char* category = "";
  const char* name = "";
  std::uint64_t start_ns = 0;  ///< since Tracer construction (steady clock)
  std::uint64_t duration_ns = 0;
  std::uint32_t thread_id = 0;  ///< dense id assigned per recording thread
  std::uint16_t depth = 0;      ///< nesting depth within the thread
};

/// Process-wide span collector. Disabled by default: a bench (or test)
/// opts in with set_enabled(true); artifact-cache construction opts back
/// out around training loops with SuspendTracing.
///
/// Recording threads append to a small lock-free thread-local staging
/// vector that drains into their registered buffer every kFlushChunk
/// events, when the thread exits (the staging slot's destructor), or on
/// an explicit flush() — so short-lived worker threads never leave spans
/// stranded and the hot path takes the buffer mutex only once per chunk.
/// snapshot()/size()/dropped() flush the *calling* thread's staging
/// first, so a thread always sees its own spans immediately.
class Tracer {
 public:
  /// Hard cap per thread: a runaway loop degrades to dropped-event
  /// accounting instead of unbounded memory.
  static constexpr std::size_t kMaxEventsPerThread = 1u << 20;

  /// Staged events drained per mutex acquisition.
  static constexpr std::size_t kFlushChunk = 256;

  static Tracer& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Nanoseconds since tracer construction (monotonic).
  std::uint64_t now_ns() const;

  void record(const SpanEvent& event);

  /// Drain the calling thread's staged events into its buffer. Exporters
  /// call this (after set_enabled(false)) so the exporting thread's tail
  /// of events lands deterministically; exited threads already flushed.
  void flush();

  /// Copy of every recorded event across all threads (exporter side).
  std::vector<SpanEvent> snapshot() const;

  /// Events discarded because a thread hit the per-thread event cap.
  std::uint64_t dropped() const;

  /// Number of events currently buffered.
  std::size_t size() const;

  /// Lower the per-thread event cap (tests exercise dropped-event
  /// accounting without recording a million spans). Applies to events
  /// recorded after the call.
  void set_max_events_per_thread(std::size_t n) {
    max_events_.store(n, std::memory_order_relaxed);
  }
  std::size_t max_events_per_thread() const {
    return max_events_.load(std::memory_order_relaxed);
  }

  void clear();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> max_events_{kMaxEventsPerThread};
  std::uint64_t epoch_ns_ = 0;

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<TraceThreadBuffer>> buffers_;
  std::uint32_t next_thread_id_ = 0;
};

/// RAII span: records [construction, destruction) into Tracer::global()
/// and, when a histogram is supplied, feeds the duration into it. Both
/// effects are skipped entirely when the tracer is disabled at
/// construction time, so suspended regions (e.g. cached-model training)
/// cost one relaxed atomic load per span.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name,
             Histogram* histogram = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* category_;
  const char* name_;
  Histogram* histogram_;
  std::uint64_t start_ns_ = 0;
  std::uint16_t depth_ = 0;
  bool active_ = false;
};

/// RAII guard that disables tracing — and the hot-path profiler — for a
/// region (nesting-safe). Used around one-time cached-artifact
/// construction, e.g. base-model pretraining, whose millions of forward
/// passes are not part of the run being measured and would otherwise
/// pollute profiles and allocation attribution.
class SuspendTracing {
 public:
  SuspendTracing();
  ~SuspendTracing();

  SuspendTracing(const SuspendTracing&) = delete;
  SuspendTracing& operator=(const SuspendTracing&) = delete;

 private:
  bool was_enabled_;
  bool profiler_was_enabled_;
};

/// Serialize every buffered span as Chrome trace_event JSON ("X" complete
/// events, timestamps in microseconds). Loadable in chrome://tracing and
/// https://ui.perfetto.dev. Returns the document; write_chrome_trace()
/// writes it to a path and reports I/O failure.
std::string chrome_trace_json(const Tracer& tracer);
bool write_chrome_trace(const Tracer& tracer, const std::string& path);

}  // namespace edgestab::obs
