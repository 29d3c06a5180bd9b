// Tests for the streaming fleet service (src/service): the
// circuit-breaker state machine, the per-device-class latency model,
// checkpoint round trips, the end-to-end determinism contract —
// thread-count invariance and kill/resume bit-exactness (DESIGN.md §17)
// — and the differential oracle that holds the service's online metric
// to the batch path's.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/instability.h"
#include "core/resilience.h"
#include "core/workspace.h"
#include "data/dataset.h"
#include "device/capture.h"
#include "fault/fault.h"
#include "fault/latency.h"
#include "nn/layers.h"
#include "obs/session.h"
#include "runtime/thread_pool.h"
#include "service/breaker.h"
#include "service/checkpoint.h"
#include "service/pipeline.h"
#include "service/state.h"
#include "tensor/backend.h"
#include "util/rng.h"

using namespace edgestab;
using namespace edgestab::service;

// ---- CircuitBreaker --------------------------------------------------------

namespace {

BreakerConfig tiny_breaker() {
  BreakerConfig cfg;
  cfg.open_after = 2;
  cfg.cooldown = 3;
  cfg.close_after = 2;
  cfg.max_probe_rounds = 2;
  return cfg;
}

}  // namespace

TEST(CircuitBreaker, OpensAfterConsecutiveTimeouts) {
  CircuitBreaker br(tiny_breaker());
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kAdmit);
  EXPECT_FALSE(br.on_timeout().opened);  // 1 of 2
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_TRUE(br.on_timeout().opened);  // 2 of 2 -> open
  EXPECT_EQ(br.state(), BreakerState::kOpen);
}

TEST(CircuitBreaker, SuccessResetsConsecutiveCount) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_success();  // streak broken
  EXPECT_FALSE(br.on_timeout().opened);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, OpenRejectsThroughCooldownThenProbes) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();
  ASSERT_EQ(br.state(), BreakerState::kOpen);
  // Exactly `cooldown` rejects, then a half-open probe.
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(br.snapshot().rejects, 3);
}

TEST(CircuitBreaker, ClosesAfterProbeSuccessStreak) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();
  for (int i = 0; i < 3; ++i) br.admit();  // burn the cooldown
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  EXPECT_FALSE(br.on_success().closed);  // probe 1 of 2
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  const CircuitBreaker::Feedback fb = br.on_success();  // probe 2 of 2
  EXPECT_TRUE(fb.closed);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kAdmit);
  EXPECT_EQ(br.snapshot().closes, 1);
}

TEST(CircuitBreaker, FailedProbeReopensAndEventuallySticks) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();  // open (round 0)
  // Probe round 1: fail the probe -> reopen, not yet sticky.
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  CircuitBreaker::Feedback fb = br.on_timeout();
  EXPECT_TRUE(fb.opened);
  EXPECT_FALSE(fb.went_sticky);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  // Probe round 2: fail again -> sticky open, rejects forever.
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  fb = br.on_timeout();
  EXPECT_TRUE(fb.went_sticky);
  EXPECT_TRUE(br.sticky_open());
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(br.admit(), CircuitBreaker::Admit::kReject);
}

TEST(CircuitBreaker, PartialProbeStreakResetOnFailure) {
  BreakerConfig cfg = tiny_breaker();
  cfg.max_probe_rounds = 5;
  CircuitBreaker br(cfg);
  br.on_timeout();
  br.on_timeout();
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  br.on_success();  // 1 of 2 probe successes...
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  br.on_timeout();  // ...wiped by the failed probe
  for (int i = 0; i < 3; ++i) br.admit();
  ASSERT_EQ(br.admit(), CircuitBreaker::Admit::kProbe);
  EXPECT_FALSE(br.on_success().closed);  // streak restarted at 1 of 2
}

TEST(CircuitBreaker, SnapshotRestoreRoundTrip) {
  CircuitBreaker br(tiny_breaker());
  br.on_timeout();
  br.on_timeout();
  br.admit();
  br.admit();
  const BreakerSnapshot snap = br.snapshot();

  CircuitBreaker copy(tiny_breaker());
  copy.restore(snap);
  // Both continue identically: one more reject, then a probe.
  for (int i = 0; i < 4; ++i) {
    const auto a = br.admit();
    const auto b = copy.admit();
    EXPECT_EQ(static_cast<int>(a), static_cast<int>(b)) << "step " << i;
  }
  EXPECT_EQ(scheduler_digest({0, {{br.snapshot(), 0}}}),
            scheduler_digest({0, {{copy.snapshot(), 0}}}));
}

// ---- Latency model ---------------------------------------------------------

TEST(LatencyModel, DeterministicAndClassOrdered) {
  fault::FaultPlan plan;
  const double a =
      fault::draw_latency_ms(plan, fault::DeviceClass::kBudget, 3, 5, 0, 1);
  const double b =
      fault::draw_latency_ms(plan, fault::DeviceClass::kBudget, 3, 5, 0, 1);
  EXPECT_EQ(a, b);  // pure function of coordinates
  EXPECT_NE(a, fault::draw_latency_ms(plan, fault::DeviceClass::kBudget, 3,
                                      5, 0, 2));
  // Class base floors: a flagship draw is never slower than the budget
  // class's base service time.
  double flagship_max = 0.0;
  for (int s = 0; s < 64; ++s)
    flagship_max = std::max(
        flagship_max, fault::draw_latency_ms(plan, fault::DeviceClass::kFlagship,
                                             1, s, 0, 0));
  const double budget_floor =
      fault::latency_class_model(fault::DeviceClass::kBudget, plan).base_ms;
  double budget_min = 1e9;
  for (int s = 0; s < 64; ++s)
    budget_min = std::min(
        budget_min, fault::draw_latency_ms(plan, fault::DeviceClass::kBudget,
                                           1, s, 0, 0));
  EXPECT_GE(budget_min, budget_floor);
  EXPECT_LT(fault::latency_class_model(fault::DeviceClass::kFlagship, plan)
                .base_ms,
            budget_floor);
  (void)flagship_max;
}

TEST(LatencyModel, PlanKnobsScaleDrawsAndDeadline) {
  fault::FaultPlan base;
  fault::FaultPlan scaled = base;
  scaled.latency_scale = 2.0;
  const double d1 =
      fault::draw_latency_ms(base, fault::DeviceClass::kMid, 2, 9, 0, 0);
  const double d2 =
      fault::draw_latency_ms(scaled, fault::DeviceClass::kMid, 2, 9, 0, 0);
  EXPECT_NEAR(d2, 2.0 * d1, 1e-9);
  EXPECT_NEAR(fault::deadline_budget_ms(fault::DeviceClass::kMid, scaled),
              2.0 * fault::deadline_budget_ms(fault::DeviceClass::kMid, base),
              1e-9);
  fault::FaultPlan pinned = base;
  pinned.deadline_ms = 42.0;
  EXPECT_EQ(fault::deadline_budget_ms(fault::DeviceClass::kBudget, pinned),
            42.0);
}

TEST(LatencyModel, SpecPresetsParse) {
  const fault::FaultPlan budget = fault::parse_fault_plan("budget");
  EXPECT_GT(budget.latency_scale, 1.0);
  EXPECT_GT(budget.latency_slow_boost, 0.0);
  EXPECT_FALSE(budget.any());  // latency-only: injector stays off
  const fault::FaultPlan flagship = fault::parse_fault_plan("flagship");
  EXPECT_LT(flagship.latency_scale, 1.0);
  // Composes with a fault preset and k=v overrides.
  const fault::FaultPlan mixed =
      fault::parse_fault_plan("heavy,budget,deadline_ms=30");
  EXPECT_TRUE(mixed.any());
  EXPECT_EQ(mixed.deadline_ms, 30.0);
  EXPECT_EQ(mixed.latency_scale, budget.latency_scale);
}

// ---- Checkpoint round trips ------------------------------------------------

namespace {

ServiceCheckpoint sample_checkpoint() {
  ServiceCheckpoint ckpt;
  ckpt.config_digest = 0xDEADBEEFCAFEF00DULL;
  ckpt.slot = 21;
  ckpt.agg.slots_folded = 21;
  ckpt.agg.shots_folded = 168;
  ckpt.agg.ok = 150;
  ckpt.agg.correct = 120;
  ckpt.agg.shed = 6;
  ckpt.agg.rejected = 5;
  ckpt.agg.timeouts = 4;
  ckpt.agg.capture_lost = 2;
  ckpt.agg.decode_lost = 1;
  ckpt.agg.fault_events = 40;
  ckpt.agg.retries = 9;
  ckpt.agg.slots_fully_covered = 15;
  ckpt.agg.slots_degraded = 5;
  ckpt.agg.slots_lost = 1;
  ckpt.agg.verdicts.total_items = 20;
  ckpt.agg.verdicts.unstable_items = 7;
  ckpt.agg.verdicts.all_correct_items = 11;
  ckpt.agg.verdicts.all_incorrect_items = 2;
  ckpt.agg.digest_chain = 0xFEEDFACE12345678ULL;
  ckpt.agg.latency_hist_100us[12] = 30;
  ckpt.agg.latency_hist_100us[444] = 2;
  ckpt.agg.devices.resize(8);
  ckpt.agg.devices[3].ok = 19;
  ckpt.agg.devices[3].latency_us_sum = 123456;
  ckpt.sched.next_shot = 168;
  ckpt.sched.devices.resize(8);
  ckpt.sched.devices[2].breaker.state = 1;
  ckpt.sched.devices[2].breaker.cooldown_left = 4;
  ckpt.sched.devices[2].breaker.opens = 2;
  ckpt.sched.devices[2].backlog_us = 314159;
  ckpt.sched.devices[5].breaker.sticky = true;
  ckpt.ledger_events.push_back({obs::FaultEventKind::kDeadlineTimeout, 2,
                                20, 0, 2, false, 7.25});
  ckpt.ledger_events.push_back(
      {obs::FaultEventKind::kRetry, 1, 3, 0, 1, true, 10.0});
  ckpt.telemetry_state = "{\"window\":4}";
  ckpt.timeline_state = "{\"format\":\"edgestab-timeline-state-v1\"}";
  return ckpt;
}

}  // namespace

TEST(Checkpoint, JsonRoundTripIsExact) {
  const ServiceCheckpoint ckpt = sample_checkpoint();
  const std::string json = serialize_checkpoint(ckpt);
  ServiceCheckpoint back;
  std::string error;
  ASSERT_TRUE(parse_checkpoint(json, &back, &error)) << error;
  // Full-surface digest equality covers every field class, including
  // the 64-bit values that must survive the JSON double parser.
  EXPECT_EQ(checkpoint_digest(back), checkpoint_digest(ckpt));
  EXPECT_EQ(back.config_digest, ckpt.config_digest);
  EXPECT_EQ(back.agg.digest_chain, ckpt.agg.digest_chain);
  EXPECT_EQ(aggregate_digest(back.agg), aggregate_digest(ckpt.agg));
  EXPECT_EQ(scheduler_digest(back.sched), scheduler_digest(ckpt.sched));
  EXPECT_EQ(back.ledger_events.size(), ckpt.ledger_events.size());
  EXPECT_EQ(back.telemetry_state, ckpt.telemetry_state);
  EXPECT_EQ(back.timeline_state, ckpt.timeline_state);
  // And the serialization itself is stable.
  EXPECT_EQ(serialize_checkpoint(back), json);
}

TEST(Checkpoint, ParseRejectsWrongFormatAndGarbage) {
  ServiceCheckpoint out;
  std::string error;
  EXPECT_FALSE(parse_checkpoint("{\"format\":\"bogus-v9\"}", &out, &error));
  EXPECT_FALSE(parse_checkpoint("not json at all", &out, &error));
  const std::string json = serialize_checkpoint(sample_checkpoint());
  EXPECT_FALSE(
      parse_checkpoint(json.substr(0, json.size() / 2), &out, &error));
}

TEST(Checkpoint, FileRoundTripAndAtomicTmp) {
  const ServiceCheckpoint ckpt = sample_checkpoint();
  const std::string path =
      testing::TempDir() + "/edgestab_ckpt_test.json";
  std::string error;
  ASSERT_TRUE(write_checkpoint_file(path, ckpt, &error)) << error;
  EXPECT_NE(std::fopen(path.c_str(), "rb"), nullptr);
  // The sibling tmp file must not survive the rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  ServiceCheckpoint back;
  ASSERT_TRUE(load_checkpoint_file(path, &back, &error)) << error;
  EXPECT_EQ(checkpoint_digest(back), checkpoint_digest(ckpt));
  std::remove(path.c_str());
}

// ---- End-to-end determinism ------------------------------------------------

namespace {

/// Small geometry that still exercises every tier: 6 devices cover all
/// three device classes twice; "budget,deadline_ms=24" makes deadline
/// timeouts (and thus breaker traffic) common; heavy fault rates feed
/// the capture/delivery sites.
ServiceConfig gate_config() {
  ServiceConfig config;
  config.devices = 6;
  config.shots = 6 * 36;
  config.stimulus_bank = 3;
  config.scene_size = 32;
  config.seed = 99;
  config.plan = fault::parse_fault_plan("moderate,budget,deadline_ms=24");
  config.shed_backlog_ms = 120.0;
  config.drain_ms_per_shot = 40.0;
  return config;
}

struct RunDigests {
  std::uint64_t agg = 0, ledger = 0, breaker = 0, telemetry = 0;
  bool operator==(const RunDigests& o) const {
    return agg == o.agg && ledger == o.ledger && breaker == o.breaker &&
           telemetry == o.telemetry;
  }
};

/// Run in a fresh session with the injector armed and a 4-item
/// telemetry window (so checkpoint boundaries land mid-window).
SoakReport run_armed(Model& model, const ServiceConfig& config) {
  obs::Session session;
  session.faults().configure(config.plan);
  session.telemetry().set_enabled(true);
  session.telemetry().set_window_items(4);
  return run_fleet_service(model, config);
}

/// Restores the global pool's width when a test that pins it ends.
class PoolWidthGuard {
 public:
  PoolWidthGuard() : saved_(runtime::ThreadPool::global().threads()) {}
  ~PoolWidthGuard() { runtime::ThreadPool::set_global_threads(saved_); }

 private:
  int saved_;
};

RunDigests run_gate(Model& model, const ServiceConfig& config) {
  const SoakReport r = run_armed(model, config);
  return {r.agg_digest, r.ledger_digest, r.breaker_digest,
          r.telemetry_digest};
}

}  // namespace

TEST(ServicePipeline, DigestsInvariantAcrossThreadCounts) {
  Workspace ws;
  Model model = ws.fresh_model();
  ServiceConfig config = gate_config();
  config.threads = 1;
  const RunDigests one = run_gate(model, config);
  config.threads = 3;
  const RunDigests three = run_gate(model, config);
  EXPECT_TRUE(one == three);
  EXPECT_NE(one.agg, 0u);
  EXPECT_NE(one.ledger, 0u);
}

TEST(ServicePipeline, StopAndResumeMatchesUninterrupted) {
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_service_resume.ckpt.json";

  ServiceConfig config = gate_config();
  const RunDigests reference = run_gate(model, config);

  // Stop gracefully after the second checkpoint (slot 14 of 36 — a
  // mid-telemetry-window boundary with the 4-item window run_gate arms).
  ServiceConfig first_half = config;
  first_half.checkpoint_path = ckpt_path;
  first_half.checkpoint_every_slots = 7;
  first_half.stop_after_checkpoints = 2;
  const SoakReport half = run_armed(model, first_half);
  EXPECT_TRUE(half.stopped_at_checkpoint);
  EXPECT_FALSE(half.completed);
  EXPECT_EQ(half.checkpoints_written, 2);
  EXPECT_EQ(half.agg.slots_folded, 14);

  // A fresh session (a new process), then resume to the end.
  ServiceConfig second_half = config;
  second_half.checkpoint_path = ckpt_path;
  second_half.checkpoint_every_slots = 7;
  second_half.resume = true;
  const RunDigests resumed = run_gate(model, second_half);
  EXPECT_TRUE(resumed == reference);
  std::remove(ckpt_path.c_str());
}

TEST(ServicePipeline, ResumeRefusesMismatchedConfig) {
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_service_mismatch.ckpt.json";
  ServiceConfig config = gate_config();
  config.checkpoint_path = ckpt_path;
  config.checkpoint_every_slots = 7;
  config.stop_after_checkpoints = 1;
  (void)run_armed(model, config);

  ServiceConfig other = config;
  other.stop_after_checkpoints = 0;
  other.resume = true;
  other.seed = config.seed + 1;  // different stream geometry
  EXPECT_THROW(run_armed(model, other), CheckError);
  std::remove(ckpt_path.c_str());
}

TEST(ServicePipeline, ResumeRefusesAggregateThatBreaksItsAccounting) {
  // A real checkpoint resumes; the same checkpoint with its per-device
  // rows gone, or one unstable slot too many, must be refused rather
  // than silently zeroed or carried into the final digests.
  Workspace ws;
  Model model = ws.fresh_model();
  const std::string ckpt_path =
      testing::TempDir() + "/edgestab_service_tamper.ckpt.json";
  ServiceConfig config = gate_config();
  config.checkpoint_path = ckpt_path;
  config.checkpoint_every_slots = 7;
  config.stop_after_checkpoints = 1;
  (void)run_armed(model, config);
  ServiceCheckpoint cut;
  std::string error;
  ASSERT_TRUE(load_checkpoint_file(ckpt_path, &cut, &error)) << error;
  EXPECT_EQ(aggregate_inconsistency(
                cut.agg, cut.slot, config.devices,
                static_cast<long long>(cut.ledger_events.size())),
            "");

  ServiceConfig resume = config;
  resume.stop_after_checkpoints = 0;
  resume.resume = true;
  auto refused = [&](void (*edit)(ServiceCheckpoint&), const char* what) {
    ServiceCheckpoint bad = cut;
    edit(bad);
    ASSERT_TRUE(write_checkpoint_file(ckpt_path, bad, &error)) << error;
    try {
      run_armed(model, resume);
      ADD_FAILURE() << "resumed from a checkpoint with " << what;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("breaks its accounting"),
                std::string::npos)
          << e.what();
    }
  };
  refused([](ServiceCheckpoint& c) { c.agg.devices.clear(); },
          "no per-device rows");
  refused([](ServiceCheckpoint& c) { ++c.agg.verdicts.unstable_items; },
          "unstable_slots + 1");

  ASSERT_TRUE(write_checkpoint_file(ckpt_path, cut, &error)) << error;
  EXPECT_TRUE(run_armed(model, resume).completed);
  std::remove(ckpt_path.c_str());
}

TEST(ServicePipeline, ShedAccountingNeverSilent) {
  // Every admission decision lands in exactly one outcome bucket and
  // every shed/reject carries a ledger receipt — nothing is silently
  // dropped (the ISSUE's load-shedding contract).
  Workspace ws;
  Model model = ws.fresh_model();
  ServiceConfig config = gate_config();
  obs::Session session;
  session.faults().configure(config.plan);
  const SoakReport report = run_fleet_service(model, config);
  const AggregateState& agg = report.agg;
  EXPECT_EQ(agg.ok + agg.shed + agg.rejected + agg.timeouts +
                agg.capture_lost + agg.decode_lost,
            config.shots);
  long long shed_receipts = 0, reject_receipts = 0;
  for (const obs::FaultEvent& e :
       session.fault_ledger().export_group_raw("service")) {
    if (e.kind == obs::FaultEventKind::kShedOverload) ++shed_receipts;
    if (e.kind == obs::FaultEventKind::kBreakerReject) ++reject_receipts;
  }
  EXPECT_EQ(shed_receipts, agg.shed);
  EXPECT_EQ(reject_receipts, agg.rejected);
  EXPECT_GT(agg.timeouts, 0);  // the tight deadline actually fired
}

TEST(ServicePipeline, BatchWiderThanLeadCapStillCompletes) {
  // An inference group closes only once all its shots are scheduled, so
  // the scheduler's lead cap must stretch to a whole group: one device
  // and max_inflight 2 would otherwise stall the first group of 8.
  Workspace ws;
  Model model = ws.fresh_model();
  ServiceConfig config = gate_config();
  config.devices = 1;
  config.shots = 36;  // the last group is clipped to 4 shots
  config.max_inflight = 2;
  config.inference_batch = 8;
  const SoakReport report = run_armed(model, config);
  ASSERT_TRUE(report.completed);
  const AggregateState& agg = report.agg;
  EXPECT_EQ(agg.ok + agg.shed + agg.rejected + agg.timeouts +
                agg.capture_lost + agg.decode_lost,
            config.shots);

  ServiceConfig bad = config;
  bad.inference_batch = 0;
  EXPECT_THROW(run_fleet_service(model, bad), CheckError);
  bad = config;
  bad.max_inflight = 0;
  EXPECT_THROW(run_fleet_service(model, bad), CheckError);
}

TEST(ServicePipeline, StagesAccountEveryShot) {
  // DESIGN.md §17's pass-through rule: every record traverses every
  // stage, terminal or not, so on a completed faulted run each stage has
  // processed exactly `shots` records. `threads` sizes the pool lanes
  // (capped by the pool width, pinned here so 3 lanes exist anywhere).
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(3);
  Workspace ws;
  Model model = ws.fresh_model();
  for (int threads : {1, 3}) {
    ServiceConfig config = gate_config();
    config.threads = threads;
    const SoakReport report = run_armed(model, config);
    ASSERT_TRUE(report.completed);
    ASSERT_EQ(report.stages.size(), 3u);
    EXPECT_EQ(report.stages[0].name, "develop");
    EXPECT_EQ(report.stages[1].name, "inference");
    EXPECT_EQ(report.stages[2].name, "aggregate");
    for (const StageStats& s : report.stages)
      EXPECT_EQ(s.processed, config.shots) << s.name << " @ " << threads;
    EXPECT_EQ(report.stages[0].workers, threads);
    EXPECT_EQ(report.stages[1].workers, threads);
    // The faulted run must actually end shots early for the rule to bite.
    EXPECT_LT(report.agg.ok, config.shots);
  }
}

namespace {

/// Threads in this process, or 0 where /proc/self/task is absent.
int task_count() {
  std::error_code ec;
  return static_cast<int>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task", ec),
      std::filesystem::directory_iterator()));
}

}  // namespace

TEST(ServicePipeline, ComputeThreadsArePoolLanes) {
  // Scheduling, develop, inference and the fold all run on the pool's
  // lanes, which exist before the run starts: a soak adds no thread, so
  // the only new one is this test's sampler.
  if (task_count() == 0) GTEST_SKIP() << "/proc/self/task is not readable";
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(3);
  Workspace ws;
  Model model = ws.fresh_model();
  ServiceConfig config = gate_config();
  config.threads = 3;
  obs::Session session;
  session.faults().configure(config.plan);

  const int before = task_count();
  std::atomic<bool> done{false};
  std::atomic<int> peak{before};
  std::thread sampler([&] {
    while (!done.load()) {
      peak.store(std::max(peak.load(), task_count()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const SoakReport report = run_fleet_service(model, config);
  done.store(true);
  sampler.join();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(peak.load(), before);  // the sampler saw at least itself
  EXPECT_LE(peak.load(), before + 1)
      << "the soak started threads of its own beside the pool lanes";
}

TEST(ServicePipeline, ThrowingLaneTearsDownCleanly) {
  // Inference throws on every group: a dense-only model cannot take the
  // develop stage's [3,S,S] inputs. The lane's exception must stop the
  // other lanes and reach the caller, at one lane and at three, with no
  // lane left blocked on the lead cap.
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(3);
  Model model;
  model.add(std::make_unique<Dense>("fc", 7, 12));
  Pcg32 rng(7);
  model.init(rng);
  for (int threads : {1, 3}) {
    ServiceConfig config = gate_config();
    config.threads = threads;
    EXPECT_THROW(run_armed(model, config), CheckError) << threads;
  }
}

TEST(ServicePipeline, CheckpointWriteFailureTearsDownCleanly) {
  // The checkpoint's directory does not exist, so the first cut throws
  // on whichever lane is folding. That lane must stop the others and the
  // error reach the caller, at one lane and at three, with no hang.
  PoolWidthGuard guard;
  runtime::ThreadPool::set_global_threads(3);
  Workspace ws;
  Model model = ws.fresh_model();
  for (int threads : {1, 3}) {
    ServiceConfig config = gate_config();
    config.threads = threads;
    config.checkpoint_path = testing::TempDir() + "/no_such_dir/x.ckpt";
    config.checkpoint_every_slots = 2;
    try {
      run_armed(model, config);
      ADD_FAILURE() << "no CheckError at " << threads;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint write failed"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- Differential oracle: the service against the batch path ---------------
//
// The streaming service folds the paper's metric online, slot by slot;
// the batch experiments compute it from a whole observation set. Fed
// the same shots, the two must agree: on the four verdict counts, on
// every device's correct count and on the correctness of every (device,
// slot) cell. The batch side takes every shot through the batch path's
// own steps — photograph with the service's per-shot stream,
// deliver_shot_collect, capture_to_input and one classify_inputs call
// over all shots (wide chunks, against the soak's one-row chunks) —
// then compute_instability with item = slot and env = device.

namespace {

/// Restores the active kernel tier when the test ends.
class BackendGuard {
 public:
  BackendGuard() : prev_(active_backend()) {}
  ~BackendGuard() { set_active_backend(prev_); }

 private:
  BackendKind prev_;
};

/// A small pretrained model, cached in the working directory's
/// .edgestab_cache after the first run. fresh_model() predicts one
/// class for every shot, so every slot would be all-right or all-wrong
/// and the comparison vacuous.
Model oracle_model() {
  WorkspaceConfig wc;
  wc.pretrain.per_class = 60;
  wc.pretrain.scene_size = 48;
  wc.pretrain_train.epochs = 6;
  wc.verbose = false;
  Workspace ws(wc);
  return ws.base_model();
}

/// A clean run in which every shot classifies: 10 devices and groups of
/// 8, so inference groups straddle slots.
ServiceConfig oracle_config(int threads) {
  ServiceConfig config;
  config.devices = 10;
  config.shots = 10 * 36;
  config.inference_batch = 8;
  config.plan.deadline_ms = 1e6;
  config.shed_backlog_ms = 1e9;
  config.threads = threads;
  return config;
}

struct BatchPath {
  InstabilityResult tally;
  std::vector<long long> correct_by_device;
  std::vector<std::vector<bool>> correct;  ///< [device][slot]
};

BatchPath run_batch_path(const Model& model, const ServiceConfig& config) {
  obs::Session session;
  const ServiceFleet fleet = make_service_fleet(config);
  const int devices = config.devices;
  const long long slots = config.shots / devices;
  std::vector<Tensor> inputs;
  for (long long slot = 0; slot < slots; ++slot)
    for (int d = 0; d < devices; ++d) {
      const FleetDevice& dev = fleet.devices[static_cast<std::size_t>(d)];
      Pcg32 rng = fleet.shot_rng(d, slot);
      const Capture capture = photograph(
          dev.profile, fleet.signal(d, fleet.stimulus(slot)), rng);
      std::vector<obs::FaultEvent> events;
      const ShotDelivery delivery = deliver_shot_collect(
          capture, d, dev.profile.noise_stream, static_cast<int>(slot), 0,
          dev.profile.os_decoder, events);
      EXPECT_TRUE(delivery.usable);
      inputs.push_back(capture_to_input(delivery.image));
    }
  const std::vector<ShotPrediction> preds =
      classify_inputs(model, inputs, 3, nullptr);

  BatchPath batch;
  batch.correct_by_device.assign(static_cast<std::size_t>(devices), 0);
  batch.correct.assign(static_cast<std::size_t>(devices),
                       std::vector<bool>(static_cast<std::size_t>(slots)));
  std::vector<Observation> observations;
  for (long long slot = 0; slot < slots; ++slot)
    for (int d = 0; d < devices; ++d) {
      const ShotPrediction& pred =
          preds[static_cast<std::size_t>(slot * devices + d)];
      Observation o;
      o.item = static_cast<int>(slot);
      o.env = d;
      o.correct = topk_correct(
          pred,
          fleet.bank_class[static_cast<std::size_t>(fleet.stimulus(slot))],
          1);
      observations.push_back(o);
      batch.correct[static_cast<std::size_t>(d)]
                   [static_cast<std::size_t>(slot)] = o.correct;
      if (o.correct) ++batch.correct_by_device[static_cast<std::size_t>(d)];
    }
  batch.tally = compute_instability(observations);
  return batch;
}

}  // namespace

TEST(ServiceOracle, MatchesBatchPath) {
  BackendGuard backend_guard;
  PoolWidthGuard pool_guard;
  runtime::ThreadPool::set_global_threads(3);
  set_active_backend(BackendKind::kScalar);  // the model trains in scalar
  const Model model = oracle_model();

  for (BackendKind kind :
       {BackendKind::kScalar, BackendKind::kAvx2, BackendKind::kInt8}) {
    if (!backend_available(kind)) continue;
    set_active_backend(kind);
    const BatchPath batch = run_batch_path(model, oracle_config(1));
    // All three verdict kinds occur, or the comparison proves little.
    EXPECT_GT(batch.tally.unstable_items, 0) << backend_name(kind);
    EXPECT_GT(batch.tally.all_correct_items, 0) << backend_name(kind);
    EXPECT_GT(batch.tally.all_incorrect_items, 0) << backend_name(kind);

    for (int threads : {1, 3}) {
      const ServiceConfig config = oracle_config(threads);
      obs::Session session;
      session.telemetry().set_enabled(true);
      session.telemetry().set_window_items(1);  // one window per slot
      const SoakReport report = run_fleet_service(model, config);
      const obs::FleetHealthSnapshot health = session.telemetry().snapshot();
      const std::string where =
          std::string(backend_name(kind)) + " threads " +
          std::to_string(threads);

      ASSERT_EQ(report.agg.ok, config.shots) << where;
      EXPECT_TRUE(report.agg.verdicts == batch.tally)
          << where << ": service " << report.agg.verdicts.unstable_items
          << "/" << report.agg.verdicts.all_correct_items << "/"
          << report.agg.verdicts.all_incorrect_items << " vs batch "
          << batch.tally.unstable_items << "/"
          << batch.tally.all_correct_items << "/"
          << batch.tally.all_incorrect_items
          << " unstable/all-correct/all-incorrect";
      ASSERT_EQ(health.devices.size(),
                static_cast<std::size_t>(config.devices))
          << where;
      int cells = 0, mismatched = 0;
      for (int d = 0; d < config.devices; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        EXPECT_EQ(report.agg.devices[ud].correct,
                  batch.correct_by_device[ud])
            << where << " device " << d;
        for (const obs::DeviceWindowStats& w : health.devices[ud].windows) {
          ASSERT_EQ(w.observations, 1) << where << " device " << d;
          ++cells;
          const bool service_correct = w.incorrect_items == 0;
          if (service_correct !=
              batch.correct[ud][static_cast<std::size_t>(w.window)])
            ++mismatched;
        }
      }
      EXPECT_EQ(cells, config.shots) << where;
      EXPECT_EQ(mismatched, 0) << where << ": " << mismatched << " of "
                               << cells << " cells differ";
      std::printf(
          "[oracle] %s: %lld unstable, %lld all-correct, %lld "
          "all-incorrect slots; %d of %d cells differ\n",
          where.c_str(), report.agg.verdicts.unstable_items,
          report.agg.verdicts.all_correct_items,
          report.agg.verdicts.all_incorrect_items, mismatched, cells);
    }
  }
}
