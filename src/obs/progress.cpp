#include "obs/progress.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/telemetry/telemetry.h"

namespace edgestab::obs {

ProgressMeter::ProgressMeter(std::string label, std::int64_t total,
                             bool enabled, StatusText status)
    : label_(std::move(label)),
      total_(total),
      enabled_(enabled),
      status_(std::move(status)) {}

bool ProgressMeter::env_enabled() {
  const char* env = std::getenv("EDGESTAB_PROGRESS");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

void ProgressMeter::tick(std::int64_t n) {
  done_ += n;
  if (!enabled_ || finished_) return;
  double now = timer_.seconds();
  bool due = last_emit_seconds_ < 0.0 ||
             now - last_emit_seconds_ >= kMinIntervalSeconds;
  bool last = total_ > 0 && done_ >= total_;
  if (due || last) emit(false);
}

void ProgressMeter::finish() {
  if (!enabled_ || finished_) {
    finished_ = true;
    return;
  }
  emit(true);
  finished_ = true;
}

void ProgressMeter::emit(bool closing) {
  double elapsed = timer_.seconds();
  // Elapsed-based throughput: items completed per wall second so far.
  // The epsilon guards the first tick of a sub-microsecond interval —
  // a 0-ish denominator would print an absurd (or infinite) rate.
  double rate = elapsed > 1e-6 && done_ > 0
                    ? static_cast<double>(done_) / elapsed
                    : 0.0;
  // Running alert estimate from the session's telemetry, e.g.
  // " 3 alerts"; empty while telemetry is off so pre-telemetry output
  // is unchanged.
  char alerts[32] = "";
  if (telemetry_enabled()) {
    std::snprintf(
        alerts, sizeof(alerts), " %lld alerts",
        static_cast<long long>(
            DeviceHealthRegistry::global().live_alert_count()));
  }
  // Live pipeline status (queue depths, shed count); empty without a
  // status callback so pre-service heartbeat lines are unchanged.
  const std::string status = status_ ? status_() : std::string();
  if (closing) {
    std::fprintf(stderr,
                 "[progress] %s done: %lld in %.1fs (%.1f items/s)%s%s\n",
                 label_.c_str(), static_cast<long long>(done_), elapsed,
                 rate, alerts, status.c_str());
  } else if (total_ > 0) {
    double fraction =
        static_cast<double>(done_) / static_cast<double>(total_);
    double eta = done_ > 0
                     ? elapsed / static_cast<double>(done_) *
                           static_cast<double>(total_ - done_)
                     : 0.0;
    std::fprintf(stderr,
                 "[progress] %s %lld/%lld (%.0f%%) elapsed %.1fs "
                 "(%.1f items/s) eta %.1fs%s%s\n",
                 label_.c_str(), static_cast<long long>(done_),
                 static_cast<long long>(total_), fraction * 100.0, elapsed,
                 rate, eta, alerts, status.c_str());
  } else {
    std::fprintf(stderr,
                 "[progress] %s %lld elapsed %.1fs (%.1f items/s)%s%s\n",
                 label_.c_str(), static_cast<long long>(done_), elapsed,
                 rate, alerts, status.c_str());
  }
  std::fflush(stderr);
  last_emit_seconds_ = elapsed;
}

}  // namespace edgestab::obs
