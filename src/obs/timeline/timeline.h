// Service timeline — deterministic epoch time-series for the streaming
// fleet pipeline.
//
// PR 9's soak observability is end-of-run aggregates: a run that
// degrades halfway through (breaker storm, queue saturation, shed
// burst) is indistinguishable from one that was mildly bad throughout.
// The timeline supplies the *when*: the serial aggregator feeds the run
// session's TimelineRecorder in fold order, and the recorder buckets
// everything into **fold epochs** — every `epoch_slots` aggregator-
// folded slots close one epoch. Epochs are counted in folded slots,
// never wall clock, so the series is bit-identical at any --threads
// setting and across a kill/resume boundary.
//
// Per epoch the recorder keeps outcome-count deltas, per-device-class
// modeled-latency histograms (log2-microsecond buckets), the breaker-
// state census at epoch close, and observational per-stage queue-depth
// lanes; alongside the epochs ride a breaker state-transition event
// stream (device, epoch, from, to, cause) and sampled per-shot causal
// traces decomposing modeled end-to-end latency into queue-wait vs
// service time with the attempt/backoff breakdown.
//
// Determinism contract (mirrors telemetry/fault ledger): every digested
// surface is integer-quantized and fed serially from the aggregator in
// shot order. Queue-depth lanes are the one observational exception —
// they sample live wall-clock queue sizes at slot-fold time, so they
// ride in the exported document but are excluded from the digest (the
// same split as the soak report's wall_seconds/stage high-water half).
//
// The recorder's full accumulator state — including the open partial
// epoch — serializes into the edgestab-ckpt-v1 checkpoint
// ("edgestab-timeline-state-v1") so a resumed run continues the series
// seamlessly; restore refuses a state whose epoch length or trace
// sample rate differ from the live knobs, or whose name tables or fleet
// size differ from the run's.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace edgestab::obs {

/// Breaker census states. 0-2 mirror service::BreakerState; 3 is the
/// sticky-open terminal (the timeline keeps its own id space so obs
/// stays independent of the service layer).
inline constexpr int kTimelineCensusStates = 4;
const char* timeline_census_name(int state);

/// One closed (or, at snapshot time, partially filled) fold epoch.
struct TimelineEpoch {
  long long index = 0;  ///< epoch number: first folded slot / epoch_slots
  int slots = 0;        ///< slots folded into this epoch (== epoch_slots
                        ///< except for a trailing partial epoch)

  /// Outcome-count deltas this epoch, indexed like the outcome name
  /// table the run registered.
  std::vector<long long> outcomes;

  /// Per-device-class modeled-latency histogram over classified shots:
  /// hist[class][bucket] where bucket b covers [2^b, 2^(b+1)) us.
  std::vector<std::map<int, long long>> latency_hist;

  /// Breaker-state census at epoch close (device counts per census
  /// state) — derived from the transition stream, so deterministic.
  std::vector<long long> census;

  /// Observational per-stage queue-depth lane, sampled once per folded
  /// slot from the live queues. NOT part of the digest.
  struct QueueLane {
    long long min = 0;
    long long max = 0;
    long long sum = 0;  ///< divide by `slots` for the epoch mean
  };
  std::vector<QueueLane> queues;
};

/// One breaker state transition, in fold order.
struct BreakerTransition {
  int device = 0;
  long long epoch = 0;
  long long slot = 0;  ///< folded-slot index the transition landed in
  int from = 0;        ///< census state ids
  int to = 0;
  std::string cause;   ///< "timeout_trip" | "cooldown_elapsed" |
                       ///< "probe_failure" | "probe_success" |
                       ///< "sticky_latch"
};

/// One service attempt inside a sampled trace.
struct TraceAttempt {
  long long backoff_us = 0;  ///< exponential backoff before the attempt
  long long service_us = 0;  ///< the attempt's modeled latency draw
};

/// One sampled per-shot causal trace: the modeled end-to-end latency
/// decomposed into queue wait (virtual backlog at admission), service
/// time, retry backoff and delivery delay. All integer microseconds.
struct ShotTrace {
  long long g = 0;
  long long slot = 0;
  int device = 0;
  int cls = 0;      ///< device-class index into the class name table
  int outcome = 0;  ///< outcome index into the outcome name table
  long long queue_wait_us = 0;
  long long service_us = 0;
  long long backoff_us = 0;
  long long delivery_us = 0;
  std::vector<TraceAttempt> attempts;
};

/// Canonical snapshot of the whole series — what the exporters render
/// and the sentinel re-renders offline.
struct TimelineDoc {
  std::string bench;  ///< filled by the exporter, not the recorder
  int epoch_slots = 0;
  long long trace_sample_ppm = 0;
  long long slots_total = 0;

  std::vector<std::string> stages;
  std::vector<std::string> classes;
  std::vector<std::string> outcomes;

  std::vector<TimelineEpoch> epochs;  ///< ascending; last may be partial
  std::vector<BreakerTransition> transitions;
  std::vector<ShotTrace> traces;
  long long traces_dropped = 0;

  bool empty() const { return epochs.empty() && transitions.empty(); }
};

/// Timeline recorder, one per run session. All record hooks are called serially
/// from the streaming aggregator in fold order; the mutex exists so
/// snapshot/serialize from another thread is safe, not to make folds
/// commutative (they are order-dependent by design — fold order IS the
/// time axis).
class TimelineRecorder {
 public:
  /// Default fold-epoch length in slots.
  static constexpr int kDefaultEpochSlots = 64;
  /// Default per-shot trace sample rate, parts per million (2%).
  static constexpr long long kDefaultTracePpm = 20000;
  /// Deterministic cap on retained traces; overflow (in fold order, so
  /// identical at any thread count) increments traces_dropped.
  static constexpr std::size_t kTraceCap = 512;

  /// The current session's recorder (obs/session.h).
  static TimelineRecorder& global();

  TimelineRecorder() = default;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Epoch length in folded slots (clamped to >= 1). Set before the run
  /// starts; restore_state refuses a mismatching checkpoint.
  void set_epoch_slots(int slots);
  int epoch_slots() const {
    return epoch_slots_.load(std::memory_order_relaxed);
  }

  /// Trace sample rate in parts per million, clamped to [0, 1000000].
  void set_trace_sample_ppm(long long ppm);
  long long trace_sample_ppm() const {
    return trace_ppm_.load(std::memory_order_relaxed);
  }

  /// Start a fresh series for a run: registers the stage / device-class
  /// / outcome name tables and the fleet size (for the census), and
  /// drops any accumulated series. Keeps enabled() and the knob values.
  /// On a resume, call this first, then restore_state().
  void begin_run(std::vector<std::string> stages,
                 std::vector<std::string> classes,
                 std::vector<std::string> outcomes, int devices);

  /// One folded shot: bumps the epoch's outcome delta and — when
  /// `count_latency` — the class's latency histogram.
  void record_shot(int cls, int outcome, long long latency_us,
                   bool count_latency);

  /// One breaker state transition (census state ids); updates the live
  /// census tracking.
  void record_transition(int device, int from, int to, std::string cause);

  /// One sampled causal trace (deterministically capped, see kTraceCap).
  void record_trace(ShotTrace trace);

  /// One slot fully folded: samples the observational queue-depth lanes
  /// (one entry per registered stage) and closes the epoch when
  /// epoch_slots slots have accumulated.
  void note_slot_folded(const std::vector<long long>& queue_depths);

  /// Canonical snapshot: closed epochs plus the open partial epoch (if
  /// any), transitions and traces in fold order. `bench` is left empty.
  TimelineDoc snapshot() const;

  /// FNV fingerprint over the deterministic surface of snapshot() —
  /// everything except the observational queue-depth lanes.
  std::uint64_t digest() const;

  /// Exact JSON serialization of the full accumulator state
  /// ("edgestab-timeline-state-v1") including the open partial epoch
  /// and the queue lanes, so a restored recorder continues the series
  /// seamlessly mid-epoch.
  std::string serialize_state() const;

  /// Replace the series from serialize_state() output. Returns false on
  /// malformed input, when the state's epoch_slots / trace sample rate
  /// differ from the live knobs — a resumed series under different
  /// bucketing would silently break the epoch contract — or when its
  /// name tables or fleet size differ from what begin_run registered.
  bool restore_state(const std::string& json);

  bool empty() const;

 private:
  TimelineEpoch& open_epoch();
  void close_epoch();

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::atomic<int> epoch_slots_{kDefaultEpochSlots};
  std::atomic<long long> trace_ppm_{kDefaultTracePpm};

  std::vector<std::string> stages_;
  std::vector<std::string> classes_;
  std::vector<std::string> outcomes_;
  std::vector<int> device_state_;  ///< live census (census state ids)

  long long slots_seen_ = 0;  ///< fully folded slots (the time cursor)
  std::vector<TimelineEpoch> epochs_;  ///< closed epochs
  TimelineEpoch open_;                 ///< accumulating epoch
  bool open_active_ = false;

  std::vector<BreakerTransition> transitions_;
  std::vector<ShotTrace> traces_;
  long long traces_dropped_ = 0;
};

/// True when the current session's recorder is enabled — the one-line
/// guard every hook site uses.
inline bool timeline_enabled() {
  return TimelineRecorder::global().enabled();
}

}  // namespace edgestab::obs
