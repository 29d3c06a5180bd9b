#include "obs/session.h"

#include "util/check.h"

namespace edgestab::obs {

namespace {

/// The one "current session" pointer; nullptr until the first session
/// opens (constant-initialized, so safe to read during static init).
std::atomic<Session*> g_current{nullptr};

}  // namespace

Session::Session() : prev_(&current()) {
  g_current.store(this, std::memory_order_release);
}

Session::~Session() {
  ES_DCHECK(g_current.load(std::memory_order_relaxed) == this);  // LIFO
  g_current.store(prev_, std::memory_order_release);
}

Session& Session::current() {
  Session* s = g_current.load(std::memory_order_acquire);
  if (s != nullptr) return *s;
  static Session* fallback = new Session(DefaultTag{});  // never destroyed
  return *fallback;
}

}  // namespace edgestab::obs

// The recorders' process-facing accessors: each is the current
// session's instance.
namespace edgestab::fault {
FaultInjector& FaultInjector::global() {
  return obs::Session::current().faults();
}
}  // namespace edgestab::fault

namespace edgestab::obs {
FaultLedger& FaultLedger::global() { return Session::current().fault_ledger(); }
DriftAuditor& DriftAuditor::global() { return Session::current().drift(); }
DeviceHealthRegistry& DeviceHealthRegistry::global() {
  return Session::current().telemetry();
}
TimelineRecorder& TimelineRecorder::global() {
  return Session::current().timeline();
}
}  // namespace edgestab::obs
