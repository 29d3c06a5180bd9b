// Run-scoped observability session (DESIGN.md §9).
//
// A Session owns one run's state: the FaultInjector, FaultLedger,
// DriftAuditor, DeviceHealthRegistry and TimelineRecorder, plus the lab
// rig's run counter that names drift / fault groups ("capture",
// "capture#1", ...). Opening a session makes it current and closing it
// restores the previous one, so every run starts fresh and two runs
// can share a process without resetting anything. Each recorder's
// X::global() forwards to Session::current(); code that never opens a
// session runs in the process's default one. Sessions nest LIFO and are
// switched only outside parallel regions.
//
// MetricsRegistry, Profiler and ThreadPool stay process-wide: the
// tracing macros cache a Histogram& / Counter& per call site and the
// profiler keeps thread-local scope stacks, so scoping them would cost
// every span an indirection and isolate no run state.
#pragma once

#include <atomic>

#include "fault/fault.h"
#include "obs/drift.h"
#include "obs/fault_ledger.h"
#include "obs/telemetry/telemetry.h"
#include "obs/timeline/timeline.h"

namespace edgestab::obs {

class Session {
 public:
  /// Open a fresh session (every recorder disabled and empty, no fault
  /// plan, rig counter at 0) and make it current.
  Session();
  /// Make the session that was current at construction current again.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The innermost open session, or the process default session when
  /// none is open.
  static Session& current();

  fault::FaultInjector& faults() { return faults_; }
  FaultLedger& fault_ledger() { return fault_ledger_; }
  DriftAuditor& drift() { return drift_; }
  DeviceHealthRegistry& telemetry() { return telemetry_; }
  TimelineRecorder& timeline() { return timeline_; }

  /// Ordinal of this lab-rig run within the session: 0 for the first,
  /// then 1, 2, ... (thread-safe).
  int next_rig_run() {
    return rig_runs_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct DefaultTag {};
  explicit Session(DefaultTag) : prev_(nullptr) {}

  Session* prev_;
  fault::FaultInjector faults_;
  FaultLedger fault_ledger_;
  DriftAuditor drift_;
  DeviceHealthRegistry telemetry_;
  TimelineRecorder timeline_;
  std::atomic<int> rig_runs_{0};
};

}  // namespace edgestab::obs
