#include "service/pipeline.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "core/experiment.h"
#include "core/resilience.h"
#include "data/dataset.h"
#include "data/render.h"
#include "data/screen.h"
#include "device/capture.h"
#include "device/fleets.h"
#include "fault/latency.h"
#include "obs/fault_ledger.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/telemetry/telemetry.h"
#include "obs/timeline/timeline.h"
#include "runtime/seed.h"
#include "runtime/thread_pool.h"
#include "service/checkpoint.h"
#include "util/check.h"
#include "util/file.h"
#include "util/hashing.h"
#include "util/timer.h"

namespace edgestab::service {

namespace {

using obs::FaultEvent;
using obs::FaultEventKind;

/// The renderer's class universe (data/render.h models all 12 paper
/// classes); the stimulus bank cycles through them.
constexpr int kClassCount = 12;

const float kBankAngles[] = {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f};

fault::DeviceClass device_class_of(int device) {
  // Round-robin tier assignment: every third device is a flagship, a
  // mid-tier, a budget phone — deterministic and class-balanced at any
  // fleet size.
  return static_cast<fault::DeviceClass>(device % 3);
}

/// One shot's record, carried through every stage. Stages mutate only
/// their own fields; terminal (non-kOk) records pass through untouched.
struct ShotRec {
  long long g = 0;
  int device = 0;
  long long slot = 0;
  int stimulus = 0;

  ShotOutcome outcome = ShotOutcome::kOk;
  int service_attempts = 1;
  long long service_latency_us = 0;
  int capture_attempts = 1;
  int delivery_attempts = 1;
  double delivery_delay_ms = 0.0;
  bool sticky_transition = false;  ///< breaker went sticky on this shot
  std::vector<FaultEvent> events;  ///< receipts; filed by the aggregator

  /// Timeline payload (only populated when the timeline is armed). The
  /// scheduler observes its own breaker mutations and the aggregator
  /// replays them in fold order, so the recorder's census never reads
  /// live breakers that have raced ahead of the fold cursor.
  struct BreakerShift {
    int from = 0;  ///< timeline census state ids (3 = sticky)
    int to = 0;
    const char* cause = "";
  };
  std::vector<BreakerShift> shifts;
  long long backlog_wait_us = 0;  ///< virtual backlog at admission
  bool trace_sampled = false;
  std::vector<obs::TraceAttempt> trace_attempts;

  Tensor input;  ///< develop's output, consumed by inference

  int predicted = -1;
  long long conf_q = 0;  ///< confidence * 1e6, rounded
  bool correct = false;

  bool has_snapshot = false;
  SchedulerState snapshot;  ///< scheduler state right after deciding g
};

/// A stage's live numbers: records in the stage now, the most ever in
/// it, and records it has handed on. The lanes keep them in atomics, so
/// the heartbeat and the folding lane (sampling the timeline's depth
/// lanes) read them without taking any lock.
struct StageLoad {
  std::atomic<std::size_t> depth{0};
  std::atomic<std::size_t> high_water{0};
  std::atomic<long long> processed{0};

  void enter(std::size_t n) {
    const std::size_t now =
        depth.fetch_add(n, std::memory_order_relaxed) + n;
    std::size_t seen = high_water.load(std::memory_order_relaxed);
    while (now > seen && !high_water.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
  }
  void leave(std::size_t n) {
    depth.fetch_sub(n, std::memory_order_relaxed);
    processed.fetch_add(static_cast<long long>(n),
                        std::memory_order_relaxed);
  }
};

/// One row of the service's stage table: the stage, how many lanes work
/// it, its bound, and its live numbers. The soak report's stage stats,
/// the timeline's stage names and depth lanes, and the heartbeat all
/// read this one table.
struct Stage {
  const char* name;
  int workers;
  std::size_t capacity;
  StageLoad load{};
};

/// develop: shots on lanes between claim and park; inference: shots
/// parked in open groups; aggregate: records in the reorder buffer.
using StageTable = std::array<Stage, 3>;
constexpr std::size_t kDevelop = 0, kInference = 1, kAggregate = 2;

/// Wall-clock-side live state for the progress heartbeat.
struct LiveStatus {
  const StageTable* stages = nullptr;
  std::atomic<long long> shed{0};
  std::atomic<long long> rejected{0};
  std::atomic<long long> slots_folded{0};
  int epoch_slots = 0;  ///< 0 when the timeline is unarmed
};

std::string live_status_text(const LiveStatus& live) {
  // Queue sizes and, with the timeline armed, the current fold epoch and
  // the worst-backlogged stage (wall-clock observational).
  std::string text = " | q";
  const Stage* worst = nullptr;
  std::size_t worst_depth = 0;
  for (const Stage& s : *live.stages) {
    const std::size_t depth = s.load.depth.load(std::memory_order_relaxed);
    text += std::string(" ") + s.name + " " + std::to_string(depth);
    if (worst == nullptr || depth > worst_depth) {
      worst = &s;
      worst_depth = depth;
    }
  }
  text += " shed " +
          std::to_string(live.shed.load(std::memory_order_relaxed)) +
          " rej " +
          std::to_string(live.rejected.load(std::memory_order_relaxed));
  if (live.epoch_slots > 0 && worst != nullptr) {
    text += " ep " +
            std::to_string(
                live.slots_folded.load(std::memory_order_relaxed) /
                live.epoch_slots) +
            " worst " + worst->name + ":" + std::to_string(worst_depth);
  }
  return text;
}

long long quantize_us(double ms) {
  return static_cast<long long>(std::llround(ms * 1000.0));
}

}  // namespace

std::uint64_t service_config_digest(const ServiceConfig& config) {
  Fingerprint fp;
  fp.add(std::string("edgestab-service-config"));
  fp.add(config.devices);
  fp.add(config.shots);
  fp.add(config.stimulus_bank);
  fp.add(config.scene_size);
  fp.add(static_cast<double>(config.divergence));
  fp.add(config.seed);
  fp.add(config.plan.digest());
  fp.add(config.breaker.open_after).add(config.breaker.cooldown);
  fp.add(config.breaker.close_after).add(config.breaker.max_probe_rounds);
  fp.add(config.shed_backlog_ms).add(config.drain_ms_per_shot);
  // Whether capture/delivery faults actually fire shapes the stream as
  // much as the plan does, so a clean run refuses a faulted checkpoint.
  fp.add(static_cast<std::uint64_t>(
      fault::FaultInjector::global().enabled() ? 1 : 0));
  const std::vector<PhoneProfile> base = end_to_end_fleet(config.divergence);
  for (const PhoneProfile& p : base) fp.add(profile_digest(p));
  return fp.value();
}

std::uint64_t ledger_events_digest(const std::vector<FaultEvent>& events) {
  Fingerprint fp;
  fp.add(std::string("edgestab-service-ledger"));
  fp.add(static_cast<std::uint64_t>(events.size()));
  for (const FaultEvent& e : events) {
    fp.add(static_cast<int>(e.kind)).add(e.device).add(e.item);
    fp.add(e.shot).add(e.attempt);
    fp.add(static_cast<std::uint64_t>(e.recovered ? 1 : 0));
    fp.add(e.detail);
  }
  return fp.value();
}

ServiceFleet make_service_fleet(const ServiceConfig& config) {
  // Devices cycle the calibrated base fleet, one stream and performance
  // tier per device.
  const std::vector<PhoneProfile> base = end_to_end_fleet(config.divergence);
  ServiceFleet world;
  world.seed = config.seed;
  world.devices.resize(static_cast<std::size_t>(config.devices));
  for (int d = 0; d < config.devices; ++d) {
    FleetDevice& dev = world.devices[static_cast<std::size_t>(d)];
    dev.profile = base[static_cast<std::size_t>(d) % base.size()];
    dev.profile.name.append("#").append(std::to_string(d));
    dev.profile.noise_stream = runtime::derive_seed(config.seed, 0x5EDE, d);
    dev.cls = device_class_of(d);
    dev.deadline_us =
        quantize_us(fault::deadline_budget_ms(dev.cls, config.plan));
  }

  // Stimulus bank: every device photographs the same emissions. The
  // noise-free sensor signal (mount warp, optics, sensor response, PRNU)
  // depends only on the base profile and the emission, so it is
  // precomputed per (base profile, stimulus); each shot only samples its
  // noise over it.
  world.bank_class.resize(static_cast<std::size_t>(config.stimulus_bank));
  world.signals.resize(base.size());
  for (int s = 0; s < config.stimulus_bank; ++s) {
    SceneSpec spec;
    spec.class_id = s % kClassCount;
    spec.instance_seed = runtime::derive_seed(config.seed, 0xBA4C, s);
    spec.view_angle = kBankAngles[static_cast<std::size_t>(s) % 5];
    world.bank_class[static_cast<std::size_t>(s)] = spec.class_id;
    const Image emission = display_on_screen(
        render_scene(spec, config.scene_size), ScreenConfig{});
    for (std::size_t p = 0; p < base.size(); ++p)
      world.signals[p].push_back(phone_signal(base[p], emission));
  }
  return world;
}

int ServiceFleet::stimulus(long long slot) const {
  return static_cast<int>(slot % static_cast<long long>(bank_class.size()));
}

const Image& ServiceFleet::signal(int device, int stimulus) const {
  return signals[static_cast<std::size_t>(device) % signals.size()]
                [static_cast<std::size_t>(stimulus)];
}

Pcg32 ServiceFleet::shot_rng(int device, long long slot) const {
  return runtime::derive_rng(
      seed, devices[static_cast<std::size_t>(device)].profile.noise_stream,
      stimulus(slot), slot);
}

namespace {

// ---- Scheduler -------------------------------------------------------------

/// Timeline census id for a breaker: 0-2 mirror BreakerState, 3 is the
/// sticky-open terminal (folded into one id so the census lane shows
/// quarantined devices separately from recoverable opens).
int census_of(const CircuitBreaker& br) {
  const BreakerSnapshot s = br.snapshot();
  return s.sticky ? 3 : s.state;
}

/// Seed salt for the deterministic per-shot trace sample draw.
constexpr std::uint64_t kTraceSalt = 0x71ACE;

/// The admission scheduler. Owns every control decision (breaker,
/// shedding, deadlines) as a pure function of (config, g) and the
/// evolving per-device state it alone mutates. Lanes call decide(g)
/// under one mutex, strictly in g order, so the decision stream is
/// bit-identical regardless of which lane claims which shot.
class Scheduler {
 public:
  Scheduler(const ServiceConfig& config, const std::vector<FleetDevice>& fleet)
      : config_(config), fleet_(fleet) {
    breakers_.assign(fleet.size(), CircuitBreaker(config.breaker));
    backlog_us_.assign(fleet.size(), 0);
    shed_us_ = quantize_us(config.shed_backlog_ms);
    drain_us_ = quantize_us(config.drain_ms_per_shot);
    timeline_ = obs::timeline_enabled();
    trace_ppm_ = obs::TimelineRecorder::global().trace_sample_ppm();
  }

  void restore(const SchedulerState& state) {
    ES_CHECK(state.devices.size() == fleet_.size());
    for (std::size_t d = 0; d < fleet_.size(); ++d) {
      breakers_[d].restore(state.devices[d].breaker);
      backlog_us_[d] = state.devices[d].backlog_us;
    }
  }

  SchedulerState state(long long next_shot) const {
    SchedulerState s;
    s.next_shot = next_shot;
    s.devices.resize(fleet_.size());
    for (std::size_t d = 0; d < fleet_.size(); ++d) {
      s.devices[d].breaker = breakers_[d].snapshot();
      s.devices[d].backlog_us = backlog_us_[d];
    }
    return s;
  }

  ShotRec decide(long long g) {
    const int devices = static_cast<int>(fleet_.size());
    ShotRec r;
    r.g = g;
    r.device = static_cast<int>(g % devices);
    r.slot = g / devices;
    r.stimulus = static_cast<int>(r.slot % config_.stimulus_bank);
    const FleetDevice& dev = fleet_[static_cast<std::size_t>(r.device)];
    CircuitBreaker& br = breakers_[static_cast<std::size_t>(r.device)];
    long long& backlog = backlog_us_[static_cast<std::size_t>(r.device)];
    const int item = static_cast<int>(r.slot);

    // One slot's worth of virtual service capacity drains per shot.
    backlog = std::max<long long>(0, backlog - drain_us_);

    // Timeline payload: the virtual backlog at admission is the modeled
    // queue wait; the trace sample is a pure function of (seed, g) so
    // the sampled set is identical at any thread count and across a
    // resume.
    r.backlog_wait_us = backlog;
    if (timeline_ && trace_ppm_ > 0) {
      Pcg32 rng = runtime::derive_rng(config_.seed, kTraceSalt,
                                      static_cast<std::uint64_t>(g));
      r.trace_sampled =
          static_cast<long long>(rng.uniform_int(1000000u)) < trace_ppm_;
    }
    // Breaker shifts are observed against the census id before/after
    // each mutating call; the aggregator replays them in fold order.
    int census = timeline_ ? census_of(br) : 0;
    auto note_shift = [&](const char* cause) {
      if (!timeline_) return;
      const int now = census_of(br);
      if (now != census) {
        r.shifts.push_back({census, now, now == 3 ? "sticky_latch" : cause});
        census = now;
      }
    };

    const CircuitBreaker::Admit admit = br.admit();
    note_shift("cooldown_elapsed");
    if (admit == CircuitBreaker::Admit::kReject) {
      r.outcome = ShotOutcome::kBreakerReject;
      r.events.push_back(
          {FaultEventKind::kBreakerReject, r.device, item, 0, 0, false,
           static_cast<double>(br.snapshot().cooldown_left)});
      return r;
    }
    const bool probe = admit == CircuitBreaker::Admit::kProbe;

    // Probes bypass shedding: an open breaker must be able to close
    // even while the device's virtual backlog is still draining.
    if (!probe && backlog > shed_us_) {
      r.outcome = ShotOutcome::kShed;
      r.events.push_back({FaultEventKind::kShedOverload, r.device, item, 0,
                          0, false,
                          static_cast<double>(backlog) / 1000.0});
      return r;
    }

    // Deadline enforcement: bounded service re-attempts, each a fresh
    // bimodal latency draw plus exponential backoff; the shot times out
    // when every attempt blows the class budget.
    const int max_attempts = std::max(1, config_.plan.max_attempts);
    long long total_us = 0;
    long long min_over_us = LLONG_MAX;
    bool ok = false;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      long long backoff_us = 0;
      if (attempt > 0) {
        const double backoff_ms =
            config_.plan.backoff_base_ms * static_cast<double>(1 << (attempt - 1));
        r.events.push_back({FaultEventKind::kRetry, r.device, item, 0,
                            attempt, false, backoff_ms});
        backoff_us = quantize_us(backoff_ms);
        total_us += backoff_us;
      }
      const long long lat_us = quantize_us(fault::draw_latency_ms(
          config_.plan, dev.cls, static_cast<std::uint64_t>(r.device),
          static_cast<std::uint64_t>(r.slot), 0, attempt));
      total_us += lat_us;
      if (r.trace_sampled) r.trace_attempts.push_back({backoff_us, lat_us});
      if (lat_us <= dev.deadline_us) {
        ok = true;
        r.service_attempts = attempt + 1;
        break;
      }
      min_over_us = std::min(min_over_us, lat_us - dev.deadline_us);
    }
    r.service_latency_us = total_us;
    backlog += total_us;

    if (ok) {
      for (FaultEvent& e : r.events)
        if (e.kind == FaultEventKind::kRetry) e.recovered = true;
      if (probe)
        r.events.push_back({FaultEventKind::kBreakerProbe, r.device, item,
                            0, 0, true, 1.0});
      const CircuitBreaker::Feedback fb = br.on_success();
      note_shift("probe_success");
      if (fb.closed)
        r.events.push_back({FaultEventKind::kBreakerClose, r.device, item,
                            0, 0, true, 0.0});
      r.outcome = ShotOutcome::kOk;  // provisional: stages may lose it
      return r;
    }

    r.service_attempts = max_attempts;
    r.outcome = ShotOutcome::kDeadlineTimeout;
    r.events.push_back({FaultEventKind::kDeadlineTimeout, r.device, item, 0,
                        max_attempts - 1, false,
                        static_cast<double>(min_over_us) / 1000.0});
    if (probe)
      r.events.push_back(
          {FaultEventKind::kBreakerProbe, r.device, item, 0, 0, false, 0.0});
    const CircuitBreaker::Feedback fb = br.on_timeout();
    note_shift(census == 2 ? "probe_failure" : "timeout_trip");
    if (fb.opened)
      r.events.push_back(
          {FaultEventKind::kBreakerOpen, r.device, item, 0, 0, false,
           static_cast<double>(br.snapshot().consecutive_timeouts)});
    if (fb.went_sticky) r.sticky_transition = true;
    r.events.push_back({FaultEventKind::kShotLost, r.device, item, 0,
                        max_attempts - 1, false,
                        static_cast<double>(max_attempts)});
    return r;
  }

 private:
  const ServiceConfig& config_;
  const std::vector<FleetDevice>& fleet_;
  std::vector<CircuitBreaker> breakers_;
  std::vector<long long> backlog_us_;
  long long shed_us_ = 0;
  long long drain_us_ = 0;
  bool timeline_ = false;
  long long trace_ppm_ = 0;
};

// ---- Pipeline plumbing -----------------------------------------------------

/// The claim frontier, under the lanes' one scheduler mutex: the next
/// shot to decide, the fold count the lead cap reads, and the stop flag.
struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  long long next_g = 0;
  long long folded = 0;  ///< shots folded so far in this run
  bool stop = false;

  void note_folded() {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++folded;
    }
    cv.notify_all();
  }
  /// Ends every lane at its next claim: an early stop or a thrown lane.
  void stop_all() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv.notify_all();
  }
};

// ---- Aggregator ------------------------------------------------------------

/// Reorder buffer + serial fold + checkpoint cutter. Lanes hand it whole
/// groups in arbitrary order; it folds strictly in shot order (the
/// buffer is bounded by the scheduler's lead cap), and the fold is the
/// only place the session's ledger and telemetry are touched during the
/// run.
class Aggregator {
 public:
  Aggregator(const ServiceConfig& config, const std::vector<FleetDevice>& fleet,
             Shared& shared, StageTable& stages, AggregateState agg,
             long long start_g, std::uint64_t config_digest,
             obs::ProgressMeter& meter, LiveStatus& live)
      : config_(config),
        fleet_(fleet),
        shared_(shared),
        stages_(stages),
        agg_(std::move(agg)),
        next_fold_(start_g),
        config_digest_(config_digest),
        meter_(meter),
        live_(live) {
    const std::size_t devices = fleet.size();
    if (agg_.devices.empty()) agg_.devices.resize(devices);
    ES_CHECK(agg_.devices.size() == devices);
    cells_.resize(devices);
  }

  /// Takes a classified group's records into the buffer. The lane that
  /// finds the fold cursor's record there with nobody folding becomes
  /// the folder and folds until the cursor's record is missing; it steps
  /// down only under the buffer's lock, so no record is ever left waiting
  /// with nobody to fold it. The fold runs off the lock: a lane that only
  /// hands over never waits behind it (nor a checkpoint's fsync). An
  /// early stop, or a fold that throws, never steps down, so nothing
  /// past the cut is folded.
  void hand_over(std::map<long long, ShotRec>& group) {
    StageLoad& load = stages_[kAggregate].load;
    std::unique_lock<std::mutex> lock(mu_);
    load.enter(group.size());
    buffer_.merge(group);
    if (folding_) return;
    folding_ = true;
    while (!buffer_.empty() && buffer_.begin()->first == next_fold_) {
      auto node = buffer_.extract(buffer_.begin());
      lock.unlock();
      fold(node.mapped());
      load.leave(1);
      ++next_fold_;
      shared_.note_folded();
      if (stop_requested_) {
        shared_.stop_all();
        return;
      }
      lock.lock();
    }
    folding_ = false;
  }

  const AggregateState& aggregate() const { return agg_; }
  int checkpoints_written() const { return checkpoints_written_; }
  bool stopped_at_checkpoint() const { return stop_requested_; }
  const SchedulerState& checkpoint_sched() const { return ckpt_sched_; }

 private:
  struct SlotCell {
    ShotOutcome outcome = ShotOutcome::kOk;
    int predicted = -1;
    long long conf_q = 0;
    long long latency_us = 0;
    int service_attempts = 0;
    int delivery_attempts = 0;
    bool correct = false;
    bool usable = false;
  };

  void fold(const ShotRec& r) {
    auto& ledger = obs::FaultLedger::global();
    for (const FaultEvent& e : r.events) {
      ledger.record(kServiceLedgerGroup, e);
      if (e.kind == FaultEventKind::kRetry) ++agg_.retries;
    }
    agg_.fault_events += static_cast<long long>(r.events.size());
    ++agg_.shots_folded;

    DeviceAggregate& dev = agg_.devices[static_cast<std::size_t>(r.device)];
    const int item = static_cast<int>(r.slot);
    int corruption = 0;
    for (const FaultEvent& e : r.events) {
      if (e.kind == FaultEventKind::kPayloadBitFlip ||
          e.kind == FaultEventKind::kPayloadTruncation ||
          e.kind == FaultEventKind::kDecodeFailure)
        ++corruption;
    }
    const bool telemetry = obs::telemetry_enabled();
    auto& registry = obs::DeviceHealthRegistry::global();
    switch (r.outcome) {
      case ShotOutcome::kOk:
        ++agg_.ok;
        ++dev.ok;
        if (r.correct) {
          ++agg_.correct;
          ++dev.correct;
        }
        dev.latency_us_sum += r.service_latency_us;
        ++agg_.latency_hist_100us[r.service_latency_us / 100];
        if (telemetry) {
          if (r.capture_attempts > 1)
            registry.record_retries(r.device, item, r.capture_attempts - 1);
          registry.record_shot(
              r.device, item, 0, r.delivery_attempts, false,
              static_cast<double>(r.service_latency_us) / 1000.0 +
                  r.delivery_delay_ms,
              corruption);
        }
        break;
      case ShotOutcome::kShed:
        ++agg_.shed;
        ++dev.shed;
        live_.shed.fetch_add(1, std::memory_order_relaxed);
        if (telemetry)
          registry.record_shot(r.device, item, 0, 1, true, 0.0, 0);
        break;
      case ShotOutcome::kBreakerReject:
        ++agg_.rejected;
        ++dev.rejected;
        live_.rejected.fetch_add(1, std::memory_order_relaxed);
        if (telemetry)
          registry.record_shot(r.device, item, 0, 1, true, 0.0, 0);
        break;
      case ShotOutcome::kDeadlineTimeout:
        ++agg_.timeouts;
        ++dev.timeouts;
        if (telemetry)
          registry.record_shot(
              r.device, item, 0, r.service_attempts, true,
              static_cast<double>(r.service_latency_us) / 1000.0, 0);
        break;
      case ShotOutcome::kCaptureLost:
        ++agg_.capture_lost;
        ++dev.capture_lost;
        if (telemetry)
          registry.record_capture_loss(r.device, item, 0,
                                       std::max(0, r.capture_attempts - 1));
        break;
      case ShotOutcome::kDecodeLost:
        ++agg_.decode_lost;
        ++dev.decode_lost;
        if (telemetry)
          registry.record_shot(r.device, item, 0, r.delivery_attempts, true,
                               static_cast<double>(r.service_latency_us) /
                                       1000.0 +
                                   r.delivery_delay_ms,
                               corruption);
        break;
    }
    if (r.sticky_transition && telemetry)
      registry.record_quarantine(r.device, item);

    // Timeline fold: replay the shot's deterministic payload into the
    // recorder here — the single serial fold point — so epoch
    // attribution, the transition stream and the trace cap are all in
    // strict shot order regardless of worker scheduling.
    if (obs::timeline_enabled()) {
      auto& timeline = obs::TimelineRecorder::global();
      const int cls = static_cast<int>(device_class_of(r.device));
      timeline.record_shot(cls, static_cast<int>(r.outcome),
                           r.service_latency_us,
                           r.outcome == ShotOutcome::kOk);
      for (const ShotRec::BreakerShift& s : r.shifts)
        timeline.record_transition(r.device, s.from, s.to, s.cause);
      if (r.trace_sampled) {
        obs::ShotTrace trace;
        trace.g = r.g;
        trace.slot = r.slot;
        trace.device = r.device;
        trace.cls = cls;
        trace.outcome = static_cast<int>(r.outcome);
        trace.queue_wait_us = r.backlog_wait_us;
        for (const obs::TraceAttempt& a : r.trace_attempts) {
          trace.backoff_us += a.backoff_us;
          trace.service_us += a.service_us;
        }
        trace.delivery_us = quantize_us(r.delivery_delay_ms);
        trace.attempts = r.trace_attempts;
        timeline.record_trace(std::move(trace));
      }
    }

    SlotCell& cell = cells_[static_cast<std::size_t>(r.device)];
    cell.outcome = r.outcome;
    cell.predicted = r.predicted;
    cell.conf_q = r.conf_q;
    cell.latency_us = r.service_latency_us;
    cell.service_attempts = r.service_attempts;
    cell.delivery_attempts = r.delivery_attempts;
    cell.correct = r.correct;
    cell.usable = r.outcome == ShotOutcome::kOk;

    meter_.tick();

    const int devices = static_cast<int>(fleet_.size());
    const bool slot_complete = (r.g % devices) == devices - 1;
    if (slot_complete) finalize_slot(item);
    if (slot_complete && r.has_snapshot) cut_checkpoint(r.snapshot);
  }

  void finalize_slot(int item) {
    // Coverage + online instability verdict for the completed slot.
    obs::ItemCounts counts;
    for (const SlotCell& c : cells_)
      if (c.usable) counts.add(c.correct);
    const long long observers = counts.correct + counts.incorrect;
    const auto devices = static_cast<long long>(cells_.size());
    if (observers == devices)
      ++agg_.slots_fully_covered;
    else if (observers == 0)
      ++agg_.slots_lost;
    else
      ++agg_.slots_degraded;
    agg_.verdicts.add(counts.verdict());
    if (obs::telemetry_enabled()) {
      auto& registry = obs::DeviceHealthRegistry::global();
      for (std::size_t d = 0; d < cells_.size(); ++d) {
        const SlotCell& c = cells_[d];
        if (!c.usable) continue;
        registry.record_observation(static_cast<int>(d), item, c.correct,
                                    obs::flipped(c.correct, counts.correct));
      }
    }

    // Per-slot digest chain over the full outcome surface.
    Fingerprint fp;
    fp.add(item);
    for (const SlotCell& c : cells_) {
      fp.add(static_cast<int>(c.outcome)).add(c.predicted);
      fp.add(static_cast<std::int64_t>(c.conf_q));
      fp.add(static_cast<std::int64_t>(c.latency_us));
      fp.add(c.service_attempts).add(c.delivery_attempts);
      fp.add(static_cast<std::uint64_t>(c.correct ? 1 : 0));
    }
    agg_.digest_chain = runtime::mix_seed(agg_.digest_chain, fp.value());
    ++agg_.slots_folded;
    cells_.assign(cells_.size(), SlotCell{});

    live_.slots_folded.fetch_add(1, std::memory_order_relaxed);
    if (obs::timeline_enabled()) {
      // Close the slot in the recorder, sampling the live queue depths
      // for the observational lanes (wall-clock data — exported but
      // never digested, DESIGN.md §18).
      std::vector<long long> depths;
      depths.reserve(stages_.size());
      for (const Stage& s : stages_)
        depths.push_back(static_cast<long long>(
            s.load.depth.load(std::memory_order_relaxed)));
      obs::TimelineRecorder::global().note_slot_folded(depths);
    }
  }

  void cut_checkpoint(const SchedulerState& sched) {
    ES_CHECK(config_.checkpoint_every_slots > 0 &&
             !config_.checkpoint_path.empty());
    ES_CHECK(sched.next_shot ==
             agg_.slots_folded * static_cast<long long>(fleet_.size()));
    ServiceCheckpoint ckpt;
    ckpt.config_digest = config_digest_;
    ckpt.slot = agg_.slots_folded;
    ckpt.agg = agg_;
    ckpt.sched = sched;
    ckpt.ledger_events =
        obs::FaultLedger::global().export_group_raw(kServiceLedgerGroup);
    if (obs::telemetry_enabled())
      ckpt.telemetry_state =
          obs::DeviceHealthRegistry::global().serialize_state();
    if (obs::timeline_enabled())
      ckpt.timeline_state =
          obs::TimelineRecorder::global().serialize_state();
    std::string error;
    ES_CHECK_MSG(
        write_checkpoint_file(config_.checkpoint_path, ckpt, &error),
        "checkpoint write failed: " + error);
    ++checkpoints_written_;
    if (config_.stop_after_checkpoints > 0 &&
        checkpoints_written_ >= config_.stop_after_checkpoints) {
      if (config_.hard_kill) {
        // The SIGKILL analogue: no destructors, no flushes beyond the
        // checkpoint's own fsync+rename — resume must reconstruct
        // everything from the file alone.
        std::fprintf(stderr,
                     "[service] hard kill after checkpoint @ slot %lld\n",
                     ckpt.slot);
        std::fflush(stderr);
        std::_Exit(kHardKillExitCode);
      }
      ckpt_sched_ = sched;
      stop_requested_ = true;
    }
  }

  const ServiceConfig& config_;
  const std::vector<FleetDevice>& fleet_;
  Shared& shared_;
  StageTable& stages_;
  AggregateState agg_;
  long long next_fold_ = 0;  ///< the folder's cursor
  std::uint64_t config_digest_ = 0;
  obs::ProgressMeter& meter_;
  LiveStatus& live_;
  std::mutex mu_;  ///< guards buffer_ and folding_
  std::map<long long, ShotRec> buffer_;
  bool folding_ = false;
  std::vector<SlotCell> cells_;
  SchedulerState ckpt_sched_;
  int checkpoints_written_ = 0;
  bool stop_requested_ = false;
};

}  // namespace

// ---- run_fleet_service -----------------------------------------------------

SoakReport run_fleet_service(const Model& model,
                             const ServiceConfig& config) {
  ES_CHECK_MSG(config.devices >= 1, "service needs >= 1 device");
  ES_CHECK_MSG(config.inference_batch >= 1, "inference batch must be >= 1");
  ES_CHECK_MSG(config.max_inflight >= 1, "max in-flight must be >= 1");
  ES_CHECK_MSG(config.shots >= config.devices &&
                   config.shots % config.devices == 0,
               "shots must be a positive multiple of devices");
  ES_CHECK_MSG(config.stimulus_bank >= 1, "stimulus bank must be >= 1");
  ES_CHECK_MSG(config.checkpoint_every_slots <= 0 ||
                   !config.checkpoint_path.empty(),
               "checkpointing needs a checkpoint path");
  const int devices = config.devices;
  const long long slots = config.shots / devices;
  const std::uint64_t config_digest = service_config_digest(config);

  const ServiceFleet world = make_service_fleet(config);
  const std::vector<FleetDevice>& fleet = world.devices;

  // ---- The stage table. `lanes` pool lanes schedule, develop, classify
  // and fold the shots (DESIGN.md §17).
  const int pool_lanes = runtime::ThreadPool::global().threads();
  const int lanes = config.threads > 0 ? std::min(config.threads, pool_lanes)
                                       : pool_lanes;
  // An inference group closes only once all its shots are claimed, so
  // the lead cap must admit one whole group past the fold cursor; it also
  // bounds the shots parked in open groups and the reorder buffer.
  const long long batch = config.inference_batch;
  const long long lead_cap =
      std::max({static_cast<long long>(config.max_inflight), 2LL * devices,
                batch});
  StageTable stages{{{"develop", lanes, static_cast<std::size_t>(lanes)},
                     {"inference", lanes, static_cast<std::size_t>(lead_cap)},
                     {"aggregate", 1, static_cast<std::size_t>(lead_cap)}}};
  // Developed shots wait here, keyed by group then g, until their
  // inference group is whole.
  std::mutex groups_mu;
  std::map<long long, std::map<long long, ShotRec>> open_groups;

  // ---- Timeline bootstrap: register the run's name tables before any
  // restore (restore_state then overwrites the fresh series with the
  // checkpointed one).
  if (obs::timeline_enabled()) {
    std::vector<std::string> stage_names;
    for (const Stage& s : stages) stage_names.push_back(s.name);
    std::vector<std::string> class_names;
    for (int c = 0; c < 3; ++c)
      class_names.push_back(
          fault::device_class_name(static_cast<fault::DeviceClass>(c)));
    std::vector<std::string> outcome_names;
    for (int o = 0; o <= static_cast<int>(ShotOutcome::kDecodeLost); ++o)
      outcome_names.push_back(outcome_name(static_cast<ShotOutcome>(o)));
    obs::TimelineRecorder::global().begin_run(
        std::move(stage_names), std::move(class_names),
        std::move(outcome_names), devices);
  }

  // ---- Resume bootstrap.
  AggregateState agg;
  Scheduler scheduler(config, fleet);
  long long start_slot = 0;
  if (config.resume) {
    ServiceCheckpoint ckpt;
    std::string error;
    ES_CHECK_MSG(
        load_checkpoint_file(config.checkpoint_path, &ckpt, &error),
        "cannot resume from " + config.checkpoint_path + ": " + error);
    ES_CHECK_MSG(ckpt.config_digest == config_digest,
                 "checkpoint config digest mismatch — refusing to resume");
    ES_CHECK(ckpt.slot >= 0 && ckpt.slot <= slots);
    ES_CHECK(ckpt.sched.next_shot ==
             ckpt.slot * static_cast<long long>(devices));
    const std::string broken = aggregate_inconsistency(
        ckpt.agg, ckpt.slot, devices,
        static_cast<long long>(ckpt.ledger_events.size()));
    ES_CHECK_MSG(broken.empty(),
                 "checkpoint aggregate breaks its accounting: " + broken);
    agg = ckpt.agg;
    scheduler.restore(ckpt.sched);
    obs::FaultLedger::global().import_group_raw(
        kServiceLedgerGroup, std::move(ckpt.ledger_events));
    if (obs::telemetry_enabled() && !ckpt.telemetry_state.empty())
      ES_CHECK_MSG(obs::DeviceHealthRegistry::global().restore_state(
                       ckpt.telemetry_state),
                   "checkpoint telemetry state is malformed");
    if (obs::timeline_enabled()) {
      // An armed resume of a timeline-less checkpoint would silently
      // restart the series at slot 0 while the run resumes mid-stream;
      // refuse instead of splicing.
      ES_CHECK_MSG(!ckpt.timeline_state.empty(),
                   "checkpoint has no timeline state — it was cut without "
                   "--timeline");
      ES_CHECK_MSG(obs::TimelineRecorder::global().restore_state(
                       ckpt.timeline_state),
                   "checkpoint timeline state is malformed or disagrees "
                   "with the live --timeline-epoch/--trace-sample-rate, "
                   "stage table or fleet size");
    }
    start_slot = ckpt.slot;
    std::printf("[service] resumed from %s @ slot %lld/%lld\n",
                config.checkpoint_path.c_str(), start_slot, slots);
  } else if (obs::telemetry_enabled()) {
    auto& registry = obs::DeviceHealthRegistry::global();
    for (int d = 0; d < devices; ++d)
      registry.set_device_label(d, fleet[static_cast<std::size_t>(d)]
                                        .profile.name);
  }
  const long long start_g = start_slot * devices;

  LiveStatus live;
  live.stages = &stages;
  live.slots_folded.store(start_slot, std::memory_order_relaxed);
  live.epoch_slots = obs::timeline_enabled()
                         ? obs::TimelineRecorder::global().epoch_slots()
                         : 0;
  obs::ProgressMeter meter(
      "fleet-soak", config.shots - start_g,
      config.progress || obs::ProgressMeter::env_enabled(),
      [&live] { return live_status_text(live); });
  Shared shared;
  shared.next_g = start_g;
  Aggregator aggregator(config, fleet, shared, stages, std::move(agg),
                        start_g, config_digest, meter, live);

  WallTimer wall;

  // Claim the next shot and decide it, in g order under the scheduler
  // mutex, once the lead cap admits it; nullopt when no shot is left or
  // the run is stopping. The snapshot rides on each checkpoint-boundary
  // shot to the fold.
  const long long boundary =
      static_cast<long long>(std::max(0, config.checkpoint_every_slots)) *
      devices;
  auto claim = [&]() -> std::optional<ShotRec> {
    std::unique_lock<std::mutex> lock(shared.mu);
    shared.cv.wait(lock, [&] {
      return shared.stop || shared.next_g >= config.shots ||
             shared.next_g - (start_g + shared.folded) < lead_cap;
    });
    if (shared.stop || shared.next_g >= config.shots) return std::nullopt;
    const long long g = shared.next_g++;
    std::optional<ShotRec> r = scheduler.decide(g);
    if (boundary > 0 && (g + 1) % boundary == 0) {
      r->has_snapshot = true;
      r->snapshot = scheduler.state(g + 1);
    }
    stages[kDevelop].load.enter(1);
    return r;
  };

  // One shot's per-shot transforms, in the batch path's own step
  // functions: the capture-fault draw, photograph (sensor noise → ISP →
  // encode), delivery + decode, and the input tensor. The per-step cost
  // stays visible through their inner profile scopes.
  auto develop = [&](ShotRec& r) {
    ES_TRACE_SCOPE("service", "develop");
    const FleetDevice& dev = fleet[static_cast<std::size_t>(r.device)];
    const int item = static_cast<int>(r.slot);
    if (fault::FaultInjector::global().enabled()) {
      CaptureFaults faults =
          draw_capture_faults(dev.profile.noise_stream, r.device, item, 0);
      r.events.insert(r.events.end(), faults.events.begin(),
                      faults.events.end());
      r.capture_attempts = faults.attempts;
      if (faults.lost) {
        r.outcome = ShotOutcome::kCaptureLost;
        return;
      }
    }
    Pcg32 rng = world.shot_rng(r.device, r.slot);
    const Capture capture =
        photograph(dev.profile, world.signal(r.device, r.stimulus), rng);
    ShotDelivery delivery = deliver_shot_collect(
        capture, r.device, dev.profile.noise_stream, item, 0,
        dev.profile.os_decoder, r.events);
    r.delivery_attempts = delivery.attempts;
    r.delivery_delay_ms = delivery.delay_ms;
    if (!delivery.usable) {
      r.outcome = ShotOutcome::kDecodeLost;
      return;
    }
    r.input = capture_to_input(delivery.image);
  };

  // Classify one whole group in g order. The input tensors die with
  // `inputs`, after the inference scope has closed, so their frees
  // attribute to the lane's ambient scope (profile_digest counts them
  // there).
  auto classify_group = [&](std::map<long long, ShotRec>& group) {
    std::vector<Tensor> inputs;
    std::vector<ShotRec*> ok;
    for (auto& [g, r] : group) {
      if (r.outcome != ShotOutcome::kOk) continue;
      inputs.push_back(std::move(r.input));
      ok.push_back(&r);
    }
    if (!inputs.empty()) {
      ES_TRACE_SCOPE("service", "inference");
      const std::vector<ShotPrediction> preds =
          classify_inputs(model, inputs, 3, nullptr);
      for (std::size_t i = 0; i < ok.size(); ++i) {
        ShotRec& r = *ok[i];
        r.predicted = preds[i].predicted();
        r.conf_q = static_cast<long long>(
            std::llround(preds[i].confidence() * 1e6));
        r.correct = topk_correct(
            preds[i], world.bank_class[static_cast<std::size_t>(r.stimulus)],
            1);
      }
    }
  };

  // The run: one parallel region, each chunk a lane loop. A lane claims
  // and decides a shot, develops it, parks it in inference group k (shots
  // g in [k·batch, (k+1)·batch), clipped to [start_g, shots): composition
  // is a pure function of shot coordinates) and, if the shot completed
  // the group, classifies it inline (the nested predict_logits region
  // keeps its chunk layout) and hands it to the aggregator, folding if
  // no other lane is. A throwing lane stops the others at their next
  // claim, and run_chunks rethrows its exception.
  runtime::ThreadPool::global().run_chunks(
      static_cast<std::size_t>(lanes), 1, [&](std::size_t, std::size_t) {
        try {
          while (std::optional<ShotRec> rec = claim()) {
            if (rec->outcome == ShotOutcome::kOk) develop(*rec);
            const long long k = rec->g / batch;
            std::map<long long, ShotRec> group;
            {
              std::lock_guard<std::mutex> lock(groups_mu);
              auto& open = open_groups[k];
              open.emplace(rec->g, std::move(*rec));
              stages[kDevelop].load.leave(1);
              stages[kInference].load.enter(1);
              if (static_cast<long long>(open.size()) <
                  std::min((k + 1) * batch, config.shots) -
                      std::max(k * batch, start_g))
                continue;
              stages[kInference].load.leave(open.size());
              group = std::move(open_groups.extract(k).mapped());
            }
            classify_group(group);
            aggregator.hand_over(group);
          }
        } catch (...) {
          shared.stop_all();
          throw;
        }
      });
  meter.finish();

  // ---- Report.
  SoakReport report;
  report.devices = devices;
  report.shots = config.shots;
  report.slots = slots;
  report.resumed_from_slot = config.resume ? start_slot : -1;
  report.checkpoints_written = aggregator.checkpoints_written();
  report.stopped_at_checkpoint = aggregator.stopped_at_checkpoint();
  report.agg = aggregator.aggregate();
  report.completed = !report.stopped_at_checkpoint &&
                     report.agg.shots_folded == config.shots;
  // A stopped run's deterministic surface is the checkpoint's: the
  // scheduler raced nondeterministically far ahead of the cut, so its
  // live state is not comparable across runs — the snapshot is.
  report.sched = report.stopped_at_checkpoint
                     ? aggregator.checkpoint_sched()
                     : scheduler.state(config.shots);

  for (const DeviceSchedState& d : report.sched.devices) {
    report.breaker_opens += d.breaker.opens;
    report.breaker_closes += d.breaker.closes;
    report.breaker_rejects += d.breaker.rejects;
    const auto state = static_cast<BreakerState>(d.breaker.state);
    if (d.breaker.sticky)
      ++report.sticky_devices;
    else if (state == BreakerState::kOpen)
      ++report.open_devices;
    else if (state == BreakerState::kHalfOpen)
      ++report.half_open_devices;
  }

  report.config_digest = config_digest;
  report.agg_digest = aggregate_digest(report.agg);
  report.breaker_digest = scheduler_digest(report.sched);
  report.ledger_digest = ledger_events_digest(
      obs::FaultLedger::global().export_group_raw(kServiceLedgerGroup));
  report.telemetry_digest = obs::DeviceHealthRegistry::global().digest();

  // Latency tail from the deterministic histogram (ok shots only).
  long long total = 0;
  for (const auto& [bucket, count] : report.agg.latency_hist_100us)
    total += count;
  if (total > 0) {
    auto percentile = [&](double p) {
      const long long target = static_cast<long long>(
          std::ceil(p * static_cast<double>(total)));
      long long seen = 0;
      for (const auto& [bucket, count] : report.agg.latency_hist_100us) {
        seen += count;
        if (seen >= target) return bucket * 100 + 50;
      }
      return report.agg.latency_hist_100us.rbegin()->first * 100 + 50;
    };
    report.latency_p50_us = percentile(0.50);
    report.latency_p99_us = percentile(0.99);
    report.latency_p999_us = percentile(0.999);
    report.latency_max_us =
        report.agg.latency_hist_100us.rbegin()->first * 100 + 100;
  }

  report.wall_seconds = wall.seconds();
  const long long folded_here =
      report.agg.shots_folded - start_g;
  report.shots_per_second =
      report.wall_seconds > 1e-9
          ? static_cast<double>(folded_here) / report.wall_seconds
          : 0.0;
  for (const Stage& stage : stages)
    report.stages.push_back({stage.name, stage.workers, stage.capacity,
                             stage.load.high_water.load(),
                             stage.load.processed.load()});
  return report;
}

// ---- Soak report JSON ------------------------------------------------------

std::string serialize_soak_report(const SoakReport& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("format").value("edgestab-soak-v1");
  w.key("completed").value(report.completed);
  w.key("stopped_at_checkpoint").value(report.stopped_at_checkpoint);
  w.key("devices").value(report.devices);
  w.key("shots").value(static_cast<std::int64_t>(report.shots));
  w.key("slots").value(static_cast<std::int64_t>(report.slots));
  w.key("resumed_from_slot")
      .value(static_cast<std::int64_t>(report.resumed_from_slot));
  w.key("checkpoints_written").value(report.checkpoints_written);

  const AggregateState& agg = report.agg;
  w.key("aggregate").begin_object();
  w.key("slots_folded").value(static_cast<std::int64_t>(agg.slots_folded));
  w.key("shots_folded").value(static_cast<std::int64_t>(agg.shots_folded));
  w.key("ok").value(static_cast<std::int64_t>(agg.ok));
  w.key("correct").value(static_cast<std::int64_t>(agg.correct));
  w.key("shed").value(static_cast<std::int64_t>(agg.shed));
  w.key("rejected").value(static_cast<std::int64_t>(agg.rejected));
  w.key("timeouts").value(static_cast<std::int64_t>(agg.timeouts));
  w.key("capture_lost").value(static_cast<std::int64_t>(agg.capture_lost));
  w.key("decode_lost").value(static_cast<std::int64_t>(agg.decode_lost));
  w.key("fault_events").value(static_cast<std::int64_t>(agg.fault_events));
  w.key("retries").value(static_cast<std::int64_t>(agg.retries));
  w.key("slots_fully_covered")
      .value(static_cast<std::int64_t>(agg.slots_fully_covered));
  w.key("slots_degraded")
      .value(static_cast<std::int64_t>(agg.slots_degraded));
  w.key("slots_lost").value(static_cast<std::int64_t>(agg.slots_lost));
  w.key("slots_observed")
      .value(static_cast<std::int64_t>(agg.verdicts.total_items));
  w.key("unstable_slots")
      .value(static_cast<std::int64_t>(agg.verdicts.unstable_items));
  w.key("all_correct_slots")
      .value(static_cast<std::int64_t>(agg.verdicts.all_correct_items));
  w.key("all_incorrect_slots")
      .value(static_cast<std::int64_t>(agg.verdicts.all_incorrect_items));
  w.end_object();

  w.key("breaker").begin_object();
  w.key("opens").value(static_cast<std::int64_t>(report.breaker_opens));
  w.key("closes").value(static_cast<std::int64_t>(report.breaker_closes));
  w.key("rejects").value(static_cast<std::int64_t>(report.breaker_rejects));
  w.key("open_devices").value(report.open_devices);
  w.key("half_open_devices").value(report.half_open_devices);
  w.key("sticky_devices").value(report.sticky_devices);
  w.end_object();

  w.key("digests").begin_object();
  w.key("config").value(obs::hex_digest(report.config_digest));
  w.key("aggregate").value(obs::hex_digest(report.agg_digest));
  w.key("ledger").value(obs::hex_digest(report.ledger_digest));
  w.key("breaker").value(obs::hex_digest(report.breaker_digest));
  w.key("telemetry").value(obs::hex_digest(report.telemetry_digest));
  w.end_object();

  w.key("latency_us").begin_object();
  w.key("p50").value(static_cast<std::int64_t>(report.latency_p50_us));
  w.key("p99").value(static_cast<std::int64_t>(report.latency_p99_us));
  w.key("p999").value(static_cast<std::int64_t>(report.latency_p999_us));
  w.key("max").value(static_cast<std::int64_t>(report.latency_max_us));
  w.end_object();

  // Observational wall-clock half (never digested, varies per run).
  w.key("wall_seconds").value(report.wall_seconds);
  w.key("shots_per_second").value(report.shots_per_second);
  w.key("stages").begin_array();
  for (const StageStats& s : report.stages) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("workers").value(s.workers);
    w.key("capacity").value(static_cast<std::int64_t>(s.capacity));
    w.key("high_water").value(static_cast<std::int64_t>(s.high_water));
    w.key("processed").value(static_cast<std::int64_t>(s.processed));
    w.end_object();
  }
  w.end_array();

  w.key("device_rows").begin_array();
  for (std::size_t d = 0; d < agg.devices.size(); ++d) {
    const DeviceAggregate& row = agg.devices[d];
    w.begin_object();
    w.key("device").value(static_cast<std::int64_t>(d));
    w.key("ok").value(static_cast<std::int64_t>(row.ok));
    w.key("correct").value(static_cast<std::int64_t>(row.correct));
    w.key("shed").value(static_cast<std::int64_t>(row.shed));
    w.key("rejected").value(static_cast<std::int64_t>(row.rejected));
    w.key("timeouts").value(static_cast<std::int64_t>(row.timeouts));
    w.key("capture_lost")
        .value(static_cast<std::int64_t>(row.capture_lost));
    w.key("decode_lost")
        .value(static_cast<std::int64_t>(row.decode_lost));
    w.key("latency_us_sum")
        .value(static_cast<std::int64_t>(row.latency_us_sum));
    if (d < report.sched.devices.size()) {
      const BreakerSnapshot& b = report.sched.devices[d].breaker;
      w.key("breaker_state")
          .value(breaker_state_name(static_cast<BreakerState>(b.state)));
      w.key("breaker_sticky").value(b.sticky);
      w.key("breaker_opens").value(static_cast<std::int64_t>(b.opens));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool write_soak_report_file(const std::string& path,
                            const SoakReport& report, std::string* error) {
  return write_file(path, serialize_soak_report(report), error);
}

}  // namespace edgestab::service
