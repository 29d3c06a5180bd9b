// Resilience policy — what the fleet does when faults strike.
//
// src/fault decides *when* a delivery is corrupted or a device stalls;
// this module decides what the experiment harness does about it:
// bounded per-shot retry with deterministic (recorded, never slept)
// backoff, per-device quarantine after K consecutive losses, and
// graceful partial-fleet degradation with explicit coverage accounting.
// Every decision is a pure function of the fault schedule and the shot
// coordinates, so a faulted run is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/capture.h"
#include "obs/fault_ledger.h"

namespace edgestab {

/// Outcome of delivering one capture to the inference side: the payload
/// crosses a lossy link (bit flips / truncation, re-drawn per attempt to
/// model retransmission) and is decoded with the total try_decode API.
struct ShotDelivery {
  bool usable = false;  ///< a delivery attempt decoded cleanly
  ImageU8 image;        ///< the decoded pixels when usable
  int attempts = 0;     ///< delivery attempts consumed (>= 1)
  double delay_ms = 0.0;  ///< synthetic straggler + backoff time
};

/// Deliver `capture` from `device` and decode it, retrying up to the
/// fault plan's attempt budget. With injection disabled this is exactly
/// the aborting decode_capture path (clean runs stay byte-identical).
/// `device_stream` keys the fault draws (the phone's noise_stream);
/// `device` is the ledger row the receipts are filed under.
ShotDelivery deliver_shot(const std::string& group, const Capture& capture,
                          int device, std::uint64_t device_stream, int item,
                          int shot,
                          const JpegDecodeOptions& os_decoder = {});

/// Pure core of deliver_shot: the same lossy-link retry loop, but the
/// fault receipts are appended to `events` instead of being filed with
/// the session's ledger and telemetry. This is the form the streaming
/// service consumes — its stage workers run ahead of the checkpoint
/// cursor and must stay side-effect free, so the aggregator alone files
/// the carried receipts, serially in item order (DESIGN.md §17).
/// deliver_shot is exactly this plus the filing.
ShotDelivery deliver_shot_collect(const Capture& capture, int device,
                                  std::uint64_t device_stream, int item,
                                  int shot,
                                  const JpegDecodeOptions& os_decoder,
                                  std::vector<obs::FaultEvent>& events);

/// Per-device quarantine verdicts over a run. `quarantined_from[d]` is
/// the first slot index excluded for device d (-1 = never quarantined);
/// slots are whatever per-device sequence the fold walked.
struct QuarantineDecision {
  std::vector<int> quarantined_from;
  int quarantined_devices = 0;

  bool excluded(int device, int slot) const {
    const int q = quarantined_from[static_cast<std::size_t>(device)];
    return q >= 0 && slot >= q;
  }
};

/// Serial fold of the quarantine policy: walking each device's slots in
/// canonical order, a device is quarantined from the slot after its
/// K-th consecutive loss (K = quarantine_after; <= 0 disables). `usable`
/// is device-major: usable[device * slots_per_device + slot]. Files one
/// kQuarantine event per verdict with the ledger under `group` (item =
/// slot / slots_per_item) when `record` is set.
QuarantineDecision quarantine_fold(const std::string& group,
                                   int device_count, int slots_per_device,
                                   const std::vector<unsigned char>& usable,
                                   int quarantine_after,
                                   int slots_per_item = 1,
                                   bool record = true);

/// Coverage accounting for a (possibly degraded) fleet run: how many
/// environments actually observed each item after losses and
/// quarantine. The cross-environment observations use slot 0 of each
/// item (repeat shots feed within-device analysis only), so coverage
/// counts devices whose slot-0 shot survived.
struct FleetResilienceStats {
  bool faults_active = false;
  int device_count = 0;
  int item_count = 0;
  int total_shots = 0;
  int shots_lost = 0;      ///< unusable after every retry (incl. dropouts)
  int shots_excluded = 0;  ///< usable but discarded by quarantine
  int quarantined_devices = 0;
  std::vector<int> quarantined_from_item;  ///< per device; -1 = never
  std::vector<int> usable_shots_by_device;
  /// coverage_histogram[n] = items observed by exactly n usable envs.
  std::vector<int> coverage_histogram;
  int items_fully_covered = 0;  ///< observed by every device
  int items_degraded = 0;       ///< observed by 1..N-1 devices
  int items_lost = 0;           ///< observed by no device
  double mean_coverage = 0.0;   ///< average usable envs per item
};

/// Tally coverage from the usable mask (device-major, slots_per_item
/// slots per item) and the quarantine verdicts.
FleetResilienceStats tally_fleet_coverage(
    int device_count, int item_count, int slots_per_item,
    const std::vector<unsigned char>& usable, const QuarantineDecision& q);

}  // namespace edgestab
