// The streaming fleet service (DESIGN.md §17).
//
// A resident, backpressured, staged pipeline over the capture→inference
// path, run entirely on pool lanes. A lane claims the next shot and,
// under one scheduler mutex and in shot order, decides its fate
// (breaker, load shedding, deadline budget) as a pure function of the
// fault schedule; it then takes the shot through capture → ISP → encode
// → decode with the batch path's own step functions (device/capture.h,
// core/resilience.h), classifies every fixed inference group its shot
// completes and hands the records to the aggregator's reorder buffer.
// One lane at a time folds that buffer in shot order, files every
// receipt, and cuts crash-consistent checkpoints at slot boundaries. The
// fold is bit-identical at any lane count, and a SIGKILLed run resumed
// from its last checkpoint finishes with byte-identical aggregates,
// ledgers and digests.
//
// Shot coordinates: shot g targets device g % devices at slot
// g / devices, photographing stimulus (slot % stimulus_bank) — every
// device photographs the same scene at the same slot, so each completed
// slot is one cross-device instability observation, folded online.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/phone.h"
#include "fault/fault.h"
#include "fault/latency.h"
#include "image/image.h"
#include "nn/model.h"
#include "obs/fault_ledger.h"
#include "service/breaker.h"
#include "service/state.h"
#include "util/rng.h"

namespace edgestab::service {

/// Exit code of a --kill-after-checkpoint hard kill (std::_Exit right
/// after the checkpoint rename — the in-tree SIGKILL analogue).
inline constexpr int kHardKillExitCode = 7;

/// The fault-ledger group the service files its receipts under.
inline constexpr const char* kServiceLedgerGroup = "service";

struct ServiceConfig {
  int devices = 8;
  long long shots = 512;  ///< total shots; devices * slots
  int stimulus_bank = 8;  ///< distinct scenes cycled across slots
  int scene_size = 48;
  float divergence = 1.0f;
  std::uint64_t seed = 2026;

  /// Latency/deadline knobs are read from here directly (a clean soak
  /// still has a latency model). The capture/delivery fault sites
  /// consult the current session's FaultInjector, as everywhere else:
  /// configure it with the same plan for a faulted soak. A session
  /// opened for the run starts with no plan, so the two never disagree
  /// by leftover state.
  fault::FaultPlan plan;
  BreakerConfig breaker;

  /// Load shedding: each device carries a virtual backlog of modeled
  /// service time; a slot's worth (`drain_ms_per_shot`) drains per shot
  /// and admissions are shed while the backlog exceeds
  /// `shed_backlog_ms`. Probe shots bypass shedding so an open breaker
  /// can still close.
  double shed_backlog_ms = 400.0;
  double drain_ms_per_shot = 50.0;

  /// Inference batch size B: shots g in [k·B, (k+1)·B) are classified
  /// together, so batch composition never depends on timing.
  int inference_batch = 8;
  /// Lead cap of the claimed shots over the fold cursor — the service's
  /// only backpressure: bounds the parked shots and the reorder buffer
  /// even when a breaker storm turns every shot into a cheap tombstone.
  int max_inflight = 4096;
  /// Pool lanes that schedule, develop, classify and fold shots, capped
  /// by the global pool's width; 0 = all of them. The run starts no
  /// thread of its own.
  int threads = 0;

  /// Checkpointing. `every_slots` 0 disables; `resume` restores
  /// `checkpoint_path` (which must exist and match the config digest)
  /// and continues from its slot. `stop_after_checkpoints` N stops the
  /// run right after the Nth checkpoint this process wrote — gracefully,
  /// or via std::_Exit(kHardKillExitCode) when `hard_kill` is set.
  std::string checkpoint_path;
  int checkpoint_every_slots = 0;
  bool resume = false;
  int stop_after_checkpoints = 0;
  bool hard_kill = false;

  bool progress = false;
};

/// Fingerprint of everything that shapes the deterministic stream:
/// geometry, seed, plan, breaker/shedding knobs, fleet profiles, plus
/// whether the session's injector is armed. Checkpoints refuse to resume
/// across a mismatch.
std::uint64_t service_config_digest(const ServiceConfig& config);

struct FleetDevice {
  PhoneProfile profile;  ///< profile.noise_stream keys its noise and faults
  fault::DeviceClass cls = fault::DeviceClass::kMid;
  long long deadline_us = 0;
};

/// The devices and stimulus bank a run photographs, a pure function of
/// the config; the service and its differential test both build it here.
struct ServiceFleet {
  std::uint64_t seed = 0;
  std::vector<FleetDevice> devices;
  std::vector<int> bank_class;  ///< ground-truth class per stimulus
  /// Noise-free sensor signal per (base profile, stimulus).
  std::vector<std::vector<Image>> signals;

  int stimulus(long long slot) const;  ///< photographed by all at `slot`
  const Image& signal(int device, int stimulus) const;
  /// The sensor-noise stream of `device`'s shot at `slot`.
  Pcg32 shot_rng(int device, long long slot) const;
};
ServiceFleet make_service_fleet(const ServiceConfig& config);

/// Observational stage stats (wall-clock side of the report — never
/// part of any digest).
struct StageStats {
  std::string name;
  int workers = 0;
  std::size_t capacity = 0;
  std::size_t high_water = 0;
  long long processed = 0;
};

struct SoakReport {
  bool completed = false;             ///< ran to the final slot
  bool stopped_at_checkpoint = false; ///< graceful early stop
  int devices = 0;
  long long shots = 0;
  long long slots = 0;
  long long resumed_from_slot = -1;
  int checkpoints_written = 0;

  AggregateState agg;
  SchedulerState sched;  ///< final (or checkpoint, when stopped early)

  long long breaker_opens = 0;
  long long breaker_closes = 0;
  long long breaker_rejects = 0;
  int open_devices = 0;
  int half_open_devices = 0;
  int sticky_devices = 0;

  std::uint64_t config_digest = 0;
  std::uint64_t agg_digest = 0;
  std::uint64_t ledger_digest = 0;
  std::uint64_t breaker_digest = 0;
  std::uint64_t telemetry_digest = 0;

  /// Modeled service-latency tail over classified shots (from the
  /// 100 us histogram; deterministic).
  long long latency_p50_us = 0;
  long long latency_p99_us = 0;
  long long latency_p999_us = 0;
  long long latency_max_us = 0;

  double wall_seconds = 0.0;      ///< observational
  double shots_per_second = 0.0;  ///< observational
  std::vector<StageStats> stages;
};

/// Run the service in the current session (obs/session.h). Files
/// receipts with its FaultLedger under kServiceLedgerGroup and feeds its
/// DeviceHealthRegistry and TimelineRecorder (all serially, from the
/// fold only).
SoakReport run_fleet_service(const Model& model,
                             const ServiceConfig& config);

/// Canonical digest of a raw ledger-event list (the report's
/// ledger_digest surface).
std::uint64_t ledger_events_digest(
    const std::vector<obs::FaultEvent>& events);

/// Soak report JSON ("edgestab-soak-v1") — what `edgestab_sentinel soak
/// FILE` re-renders offline.
std::string serialize_soak_report(const SoakReport& report);
bool write_soak_report_file(const std::string& path,
                            const SoakReport& report, std::string* error);

}  // namespace edgestab::service
