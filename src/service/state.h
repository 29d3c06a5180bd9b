// Deterministic service state — the surfaces the checkpoint persists.
//
// The streaming aggregator folds every shot record into an
// AggregateState, and the scheduler's admission machinery lives in a
// SchedulerState; both are plain integer-quantized value types so a
// checkpoint is "copy the structs out, write JSON, fsync" and resume is
// "parse, copy back" — no replay. Everything here is part of the
// bit-exact surface: a resumed run's final AggregateState, digests and
// ledgers equal an uninterrupted run's (DESIGN.md §17).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/verdict.h"
#include "service/breaker.h"

namespace edgestab::service {

/// Terminal outcome of one shot. Every admitted or refused shot gets
/// exactly one — refusals (shed / breaker) are first-class accounted
/// outcomes, never silent drops.
enum class ShotOutcome : int {
  kOk = 0,               ///< classified
  kShed = 1,             ///< load-shed at admission (virtual backlog)
  kBreakerReject = 2,    ///< breaker open
  kDeadlineTimeout = 3,  ///< every service attempt blew the budget
  kCaptureLost = 4,      ///< capture dropout / transient exhaustion
  kDecodeLost = 5,       ///< delivery corruption unrecoverable
};

const char* outcome_name(ShotOutcome outcome);

/// Per-device slice of the aggregate fold.
struct DeviceAggregate {
  long long ok = 0;
  long long correct = 0;
  long long shed = 0;
  long long rejected = 0;
  long long timeouts = 0;
  long long capture_lost = 0;
  long long decode_lost = 0;
  long long latency_us_sum = 0;  ///< modeled service latency over ok shots
};

/// The streaming aggregator's complete fold: run counters, online
/// instability/coverage tallies, the per-slot digest chain and the
/// modeled-latency histogram. Checkpoints are cut only at slot
/// boundaries, so there is never partial-slot scratch to persist.
struct AggregateState {
  long long slots_folded = 0;
  long long shots_folded = 0;

  long long ok = 0;
  long long correct = 0;
  long long shed = 0;
  long long rejected = 0;
  long long timeouts = 0;
  long long capture_lost = 0;
  long long decode_lost = 0;
  long long fault_events = 0;  ///< ledger receipts folded so far
  long long retries = 0;       ///< delivery attempts beyond the first

  /// Online coverage: per slot, how many devices produced a usable
  /// classification.
  long long slots_fully_covered = 0;
  long long slots_degraded = 0;
  long long slots_lost = 0;

  /// Online instability: each slot is one stimulus observed by its
  /// usable devices, its verdict final once its last record lands.
  /// Persisted as slots_observed (total_items), unstable_slots,
  /// all_correct_slots and all_incorrect_slots.
  obs::VerdictTally verdicts;

  /// Per-slot digest chain: h = mix_seed(h, slot_fingerprint). Equal
  /// chains mean equal per-shot outcomes, predictions, confidences and
  /// latencies in order — the strongest cross-run equality surface.
  std::uint64_t digest_chain = 0x5EEDC8A1ULL;

  /// Modeled service latency histogram over ok shots, 100 us buckets
  /// (bounded size at any scale; feeds the p50/p99/p99.9 tail report).
  std::map<long long, long long> latency_hist_100us;

  std::vector<DeviceAggregate> devices;
};

/// One device's admission-control state.
struct DeviceSchedState {
  BreakerSnapshot breaker;
  long long backlog_us = 0;  ///< virtual queueing backlog (shedding model)
};

/// The scheduler's complete state: the next shot index to decide plus
/// every device's admission machinery.
struct SchedulerState {
  long long next_shot = 0;
  std::vector<DeviceSchedState> devices;
};

/// Checks the identities a fold of `slot` whole slots of `devices`
/// devices, with `ledger_events` receipts filed, always keeps: every
/// count non-negative; slots_folded == slot; shots_folded == slot ×
/// devices; the six outcomes sum to shots_folded; the three coverage
/// counts sum to slots_folded; the verdict tally sums to its total,
/// which is at most slots_folded; correct <= ok; one row per device,
/// each per-device column summing to its total; the latency histogram
/// holding ok shots; fault_events == ledger_events. Returns "" when all
/// hold, else the first identity that breaks. Sums never overflow.
std::string aggregate_inconsistency(const AggregateState& agg,
                                    long long slot, int devices,
                                    long long ledger_events);

/// Stable fingerprints over the full deterministic surface of each
/// struct (every counter, the chain, the histogram / breaker fields).
std::uint64_t aggregate_digest(const AggregateState& agg);
std::uint64_t scheduler_digest(const SchedulerState& sched);

}  // namespace edgestab::service
