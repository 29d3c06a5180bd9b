// Fault ledger — the receipts for every injected or observed fault.
//
// src/fault decides *when* faults strike; the resilience policy in core
// decides what happens next (retry, quarantine, degrade). This ledger
// records both halves per experiment group: every dropout, corruption,
// straggler, retry, decode failure and quarantine, tallied per device,
// so a faulted run's manifest and drift report can account for exactly
// which coverage was lost and why. Like the flip ledger it is plain
// bookkeeping with a deterministic merge: events are canonically sorted
// before summarizing, so tallies and digest() are identical no matter
// how many pool lanes recorded them or in which order.
//
// Unlike FlipLedger (serialized by the DriftAuditor), events arrive
// directly from parallel lanes, so the ledger carries its own lock.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace edgestab::obs {

enum class FaultEventKind : int {
  kCaptureDropout = 0,    ///< capture produced nothing
  kTransientFailure = 1,  ///< device transiently failed a capture attempt
  kPayloadBitFlip = 2,    ///< delivery corrupted payload bits (detail: flips)
  kPayloadTruncation = 3, ///< delivery lost a payload tail (detail: bytes)
  kStragglerDelay = 4,    ///< delivery straggled (detail: ms, synthetic)
  kRetry = 5,             ///< bounded retry issued (detail: backoff ms)
  kDecodeFailure = 6,     ///< consumer could not decode the delivered bytes
  kShotLost = 7,          ///< shot unusable after all attempts (detail: tries)
  kQuarantine = 8,        ///< device quarantined (detail: consecutive losses)
  // Service-layer robustness events (src/service): load shedding,
  // deadline enforcement and the per-device circuit breaker.
  kShedOverload = 9,      ///< admission shed the shot (detail: backlog ms)
  kDeadlineTimeout = 10,  ///< modeled latency blew the budget (detail: ms over)
  kBreakerOpen = 11,      ///< breaker opened (detail: consecutive timeouts)
  kBreakerReject = 12,    ///< shot rejected while open (detail: cooldown left)
  kBreakerProbe = 13,     ///< half-open probe admitted (detail: 1 ok / 0 fail)
  kBreakerClose = 14,     ///< breaker closed after a clean probe streak
};

const char* fault_event_kind_name(FaultEventKind kind);

/// One fault occurrence at stable fleet coordinates. `detail` is
/// kind-dependent (see FaultEventKind).
struct FaultEvent {
  FaultEventKind kind = FaultEventKind::kCaptureDropout;
  int device = 0;   ///< environment / phone index within the run's fleet
  int item = 0;     ///< stimulus id
  int shot = 0;     ///< repeat index
  int attempt = 0;  ///< delivery / capture attempt the event belongs to
  bool recovered = false;  ///< a later attempt made the shot usable
  double detail = 0.0;
};

/// Per-device fault accounting within one group.
struct DeviceFaultRow {
  int device = 0;
  int dropouts = 0;
  int transient_failures = 0;
  int payload_bit_flips = 0;
  int payload_truncations = 0;
  int stragglers = 0;
  int retries = 0;
  int decode_failures = 0;
  int shots_lost = 0;
  int shed = 0;             ///< shots shed by service admission
  int deadline_timeouts = 0;
  int breaker_opens = 0;
  int breaker_rejects = 0;
  bool quarantined = false;
  int quarantined_from_item = -1;  ///< first item excluded by quarantine
  double total_delay_ms = 0.0;     ///< synthetic straggler + backoff time
};

/// Per-group summary over canonically ordered events.
struct FaultGroupSummary {
  std::string group;
  int total_events = 0;
  std::map<int, int> events_by_kind;  ///< FaultEventKind as int -> count
  std::vector<DeviceFaultRow> devices;  ///< sorted by device index
  int quarantined_devices = 0;
  int shots_lost = 0;

  /// Individual events, capped; `dropped_entries` counts the rest.
  std::vector<FaultEvent> entries;
  std::int64_t dropped_entries = 0;
};

/// Thread-safe accumulator of fault events per experiment group.
class FaultLedger {
 public:
  /// Max individual FaultEvent records kept per group in summaries;
  /// per-device tallies are exact regardless.
  static constexpr std::size_t kMaxEntriesPerGroup = 20000;

  /// The current session's ledger (obs/session.h).
  static FaultLedger& global();

  FaultLedger() = default;

  void record(const std::string& group, const FaultEvent& event);

  /// Fold another ledger (a per-shard instance) into this one.
  void merge(const FaultLedger& other);

  std::vector<FaultGroupSummary> summaries() const;
  std::optional<FaultGroupSummary> find_group(const std::string& group) const;
  bool empty() const;

  /// Every raw event recorded under `group`, canonically sorted and
  /// never entry-capped (summaries cap at kMaxEntriesPerGroup; a
  /// checkpoint must not). Empty when the group is absent.
  std::vector<FaultEvent> export_group_raw(const std::string& group) const;

  /// Replace `group`'s raw events wholesale (checkpoint restore). An
  /// empty vector erases the group, so a restored ledger is
  /// indistinguishable from one that never saw the group.
  void import_group_raw(const std::string& group,
                        std::vector<FaultEvent> events);

  /// Stable fingerprint over all group tallies and canonically ordered
  /// events (for the provenance manifest digest).
  std::uint64_t digest() const;

  void clear();

 private:
  FaultGroupSummary build_summary(const std::string& group,
                                  std::vector<FaultEvent> events) const;

  mutable std::mutex mu_;
  std::map<std::string, std::vector<FaultEvent>> raw_;
};

}  // namespace edgestab::obs
