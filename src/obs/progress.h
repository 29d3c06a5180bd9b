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
#include <functional>
#include <string>

#include "util/timer.h"

namespace edgestab::obs {

class ProgressMeter {
 public:
  /// Live-status suffix for each line, e.g. the service pipeline's
  /// per-stage queue depths and running shed count
  /// (" | q develop 3 inference 12 shed 42"). Advisory wall-clock state,
  /// never part of any deterministic artifact.
  using StatusText = std::function<std::string()>;

  /// `label` prefixes each line; `total` of 0 means unknown (no ETA).
  /// `status`, when set, is appended to every line. While the current
  /// session's telemetry is armed, each line also carries its running
  /// alert estimate. Lines are at least kMinIntervalSeconds apart; the
  /// first and final ticks always print when enabled.
  ProgressMeter(std::string label, std::int64_t total, bool enabled,
                StatusText status = {});

  static constexpr double kMinIntervalSeconds = 0.5;

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
  StatusText status_;
  std::int64_t done_ = 0;
  double last_emit_seconds_ = -1.0;
  bool finished_ = false;
  WallTimer timer_;
};

}  // namespace edgestab::obs
