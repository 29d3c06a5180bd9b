// Stderr progress heartbeat for long-running bench loops.
//
// Off by default so bench output stays byte-stable for scripts; armed by
// the `--progress` bench flag or EDGESTAB_PROGRESS=1. Each tick() may
// print one line with the completed/total count, elapsed wall time and a
// linear ETA — rate-limited so per-item loops can tick freely:
//
//   [progress] fig3 repeats 2/5 (40%) elapsed 10.4s eta 15.6s
//
// Lines go to stderr (unbuffered via fflush) so a `--repeats` sweep
// whose stdout is piped into a file still shows a pulse on the terminal.
#pragma once

#include <cstdint>
#include <string>

#include "util/timer.h"

namespace edgestab::obs {

class ProgressMeter {
 public:
  /// Optional live-alert source (telemetry's running alert estimate).
  /// A plain function pointer so progress stays decoupled from the
  /// telemetry layer: the bench harness installs it when telemetry is
  /// armed, and every heartbeat line then carries the running count.
  using AlertCountFn = std::int64_t (*)();

  /// Optional live-status source: a short free-form suffix (the service
  /// pipeline installs one reporting per-stage queue depths and the
  /// running shed count, e.g. " | q develop 3 inference 12 shed 42"). Same
  /// plain-function-pointer decoupling as the alert source; advisory
  /// wall-clock state, never part of any deterministic artifact.
  using StatusTextFn = std::string (*)();

  /// `label` prefixes each line; `total` of 0 means unknown (no ETA).
  /// `min_interval_seconds` rate-limits output; the first and final
  /// ticks always print when enabled.
  ProgressMeter(std::string label, std::int64_t total, bool enabled,
                double min_interval_seconds = 0.5);

  /// Install (or clear, with nullptr) the process-wide alert source.
  static void set_alert_source(AlertCountFn source);

  /// Install (or clear, with nullptr) the process-wide status source.
  static void set_status_source(StatusTextFn source);

  /// Mark `n` more items done; prints at most one heartbeat line.
  void tick(std::int64_t n = 1);

  /// Print the closing line (total items + elapsed). Idempotent.
  void finish();

  bool enabled() const { return enabled_; }
  std::int64_t done() const { return done_; }

  /// True when EDGESTAB_PROGRESS is set to anything but "0"/"".
  static bool env_enabled();

 private:
  void emit(bool closing);

  std::string label_;
  std::int64_t total_;
  bool enabled_;
  double min_interval_seconds_;
  std::int64_t done_ = 0;
  double last_emit_seconds_ = -1.0;
  bool finished_ = false;
  WallTimer timer_;
};

}  // namespace edgestab::obs
