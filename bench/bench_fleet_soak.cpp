// Streaming fleet-service soak (DESIGN.md §17, EXPERIMENTS.md runbook).
//
// Boots the resident staged pipeline over a synthetic fleet and streams
// shots through develop (capture → ISP → encode → decode) → inference →
// aggregate under backpressure, deadlines, load shedding and per-device
// circuit breakers. --threads sets the pool lanes that schedule, develop,
// classify and fold the shots. Reports throughput, per-stage load,
// shed/timeout/breaker counts and the modeled latency tail;
// guards the deterministic surface (aggregate, ledger, breaker,
// telemetry digests) across runs.
//
//   bench_fleet_soak --devices 500 --shots 100000 --faults heavy --threads 8
//   bench_fleet_soak --repeats 5             # 5 timed soaks, one archive row
//   bench_fleet_soak --ckpt-slots 16 --kill-after-ckpt 2   # exits 7
//   bench_fleet_soak --ckpt-slots 16 --resume              # finishes the run
//
// The digests are bit-identical at any --threads, at any --repeats and
// across any kill/resume boundary — the soak_gate ctest enforces all
// three. Checkpoint flags take --repeats 1: every repeat would cut or
// resume the same checkpoint.
#include "bench_util.h"

#include <string>

#include "fault/latency.h"
#include "obs/manifest.h"
#include "obs/timeline/timeline.h"
#include "service/pipeline.h"
#include "util/csv.h"

using namespace edgestab;

namespace {

long long int_flag(int argc, char** argv, const std::string& name,
                   long long fallback) {
  long long value = fallback;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name && i + 1 < argc)
      value = std::atoll(argv[i + 1]);
    else if (arg.rfind(name + "=", 0) == 0)
      value = std::atoll(arg.c_str() + name.size() + 1);
  }
  return value;
}

std::string string_flag(int argc, char** argv, const std::string& name,
                        const std::string& fallback) {
  std::string value = fallback;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name && i + 1 < argc)
      value = argv[i + 1];
    else if (arg.rfind(name + "=", 0) == 0)
      value = arg.substr(name.size() + 1);
  }
  return value;
}

bool bool_flag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name || arg == name + "=1") return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Run run("fleet_soak", "Streaming fleet service soak", argc, argv);

  service::ServiceConfig config;
  config.devices = static_cast<int>(int_flag(argc, argv, "--devices", 64));
  config.shots = int_flag(argc, argv, "--shots",
                          static_cast<long long>(config.devices) * 100);
  // Round shots down to a whole number of slots.
  config.shots = std::max<long long>(
      config.devices, config.shots - config.shots % config.devices);
  config.stimulus_bank =
      static_cast<int>(int_flag(argc, argv, "--bank", 8));
  config.scene_size = static_cast<int>(int_flag(argc, argv, "--scene", 48));
  config.seed = static_cast<std::uint64_t>(
      int_flag(argc, argv, "--seed", 2026));
  // Provenance: the sentinel refuses to compare soaks at different seeds.
  run.manifest().set_seed(config.seed);
  config.inference_batch =
      static_cast<int>(int_flag(argc, argv, "--batch", 8));
  config.progress = run.progress_enabled();

  // The service reads latency/deadline knobs from the plan directly, so
  // the spec is parsed here even when it arms no fault site (a
  // latency-only plan leaves the global injector off — bench_util
  // already handled the arming half of --faults).
  std::string spec;
  if (const char* env = std::getenv("EDGESTAB_FAULTS")) spec = env;
  spec = string_flag(argc, argv, "--faults", spec);
  if (bool_flag(argc, argv, "--chaos")) {
    // The chaos plan: heavy fault rates on budget-tier latency with an
    // extra slow-mode boost — the EXPERIMENTS.md worst-case runbook.
    spec = "heavy,budget,lat_slow=0.10";
    fault::FaultPlan chaos = fault::parse_fault_plan(spec);
    fault::FaultInjector::global().configure(chaos);
    std::printf("[chaos] %s\n", chaos.summary().c_str());
  }
  if (!spec.empty() && spec != "off")
    config.plan = fault::parse_fault_plan(spec);
  // Provenance names the plan the service runs. Run's constructor saw
  // only the --faults half that arms the injector: it records nothing
  // for a latency-only plan and never sees --chaos.
  if (config.plan.digest() != fault::FaultPlan{}.digest())
    run.record_fault_plan(config.plan);

  config.checkpoint_every_slots =
      static_cast<int>(int_flag(argc, argv, "--ckpt-slots", 0));
  config.checkpoint_path =
      string_flag(argc, argv, "--ckpt", "bench_out/fleet_soak.ckpt.json");
  config.resume = bool_flag(argc, argv, "--resume");
  const long long kill_after =
      int_flag(argc, argv, "--kill-after-ckpt", 0);
  const long long stop_after =
      int_flag(argc, argv, "--stop-after-ckpt", 0);
  if (kill_after > 0) {
    config.stop_after_checkpoints = static_cast<int>(kill_after);
    config.hard_kill = true;
  } else if (stop_after > 0) {
    config.stop_after_checkpoints = static_cast<int>(stop_after);
  }
  if (run.repeats() > 1 &&
      (config.checkpoint_every_slots > 0 || config.resume ||
       config.stop_after_checkpoints > 0)) {
    std::fprintf(stderr,
                 "[soak] --repeats %d cannot be combined with --ckpt-slots, "
                 "--resume, --kill-after-ckpt or --stop-after-ckpt: every "
                 "repeat would cut or resume the same checkpoint\n",
                 run.repeats());
    return 2;
  }
  if (config.checkpoint_every_slots > 0 || config.resume) {
    std::string dir;
    bench::ensure_out_dir(dir);  // the default ckpt path lives there
  }

  Workspace ws;
  Model model = ws.base_model();
  run.record_workspace(ws);

  service::SoakReport report = bench::run_repeats(
      run, [&] { return service::run_fleet_service(model, config); });
  // (A --kill-after-ckpt run never gets here: the folding lane _Exits
  // with kHardKillExitCode right after the checkpoint rename.)

  run.set_items(static_cast<double>(report.agg.shots_folded));

  std::printf("\n== fleet soak: %d devices x %lld slots (%lld shots) ==\n",
              report.devices, report.slots, report.shots);
  if (report.resumed_from_slot >= 0)
    std::printf("resumed from slot %lld; %d checkpoint(s) written\n",
                report.resumed_from_slot, report.checkpoints_written);

  Table outcomes({"OUTCOME", "SHOTS", "SHARE"});
  const double folded =
      static_cast<double>(std::max<long long>(1, report.agg.shots_folded));
  auto outcome_row = [&](const char* name, long long n) {
    outcomes.add_row({name, std::to_string(n),
                      Table::pct(static_cast<double>(n) / folded)});
  };
  outcome_row("ok", report.agg.ok);
  outcome_row("shed", report.agg.shed);
  outcome_row("breaker-reject", report.agg.rejected);
  outcome_row("deadline-timeout", report.agg.timeouts);
  outcome_row("capture-lost", report.agg.capture_lost);
  outcome_row("decode-lost", report.agg.decode_lost);
  std::printf("%s\n", outcomes.str().c_str());

  Table stages({"STAGE", "WORKERS", "CAP", "HIGH-WATER", "PROCESSED"});
  std::size_t peak_depth = 0;
  for (const service::StageStats& s : report.stages) {
    peak_depth = std::max(peak_depth, s.high_water);
    stages.add_row({s.name, std::to_string(s.workers),
                    std::to_string(s.capacity),
                    std::to_string(s.high_water),
                    std::to_string(s.processed)});
  }
  std::printf("%s\n", stages.str().c_str());

  std::printf(
      "breaker: %lld open(s), %lld close(s), %lld reject(s); "
      "end state %d open / %d half-open / %d sticky\n",
      report.breaker_opens, report.breaker_closes, report.breaker_rejects,
      report.open_devices, report.half_open_devices,
      report.sticky_devices);
  std::printf(
      "latency (modeled): p50 %.1f ms  p99 %.1f ms  p99.9 %.1f ms  "
      "max %.1f ms\n",
      static_cast<double>(report.latency_p50_us) / 1000.0,
      static_cast<double>(report.latency_p99_us) / 1000.0,
      static_cast<double>(report.latency_p999_us) / 1000.0,
      static_cast<double>(report.latency_max_us) / 1000.0);
  std::printf("throughput: %.1f shots/s over %.2f s wall\n\n",
              report.shots_per_second, report.wall_seconds);

  // Correctness surface: every count below is deterministic at any
  // --threads and across kill/resume.
  using obs::Direction;
  using obs::MetricKind;
  auto exact = [&](const char* name, double v) {
    run.record_metric(name, v, MetricKind::kCorrectness, Direction::kExact);
  };
  exact("ok_shots", static_cast<double>(report.agg.ok));
  exact("correct_shots", static_cast<double>(report.agg.correct));
  exact("shed_shots", static_cast<double>(report.agg.shed));
  exact("breaker_rejects", static_cast<double>(report.agg.rejected));
  exact("deadline_timeouts", static_cast<double>(report.agg.timeouts));
  exact("capture_lost", static_cast<double>(report.agg.capture_lost));
  exact("decode_lost", static_cast<double>(report.agg.decode_lost));
  exact("breaker_opens", static_cast<double>(report.breaker_opens));
  exact("sticky_devices", static_cast<double>(report.sticky_devices));
  exact("unstable_slots", static_cast<double>(report.agg.verdicts.unstable_items));
  exact("slots_fully_covered",
        static_cast<double>(report.agg.slots_fully_covered));
  exact("latency_p99_us", static_cast<double>(report.latency_p99_us));
  run.record_digest_metric("soak_digest",
                           obs::hex_digest(report.agg_digest));
  run.record_digest_metric("soak_ledger_digest",
                           obs::hex_digest(report.ledger_digest));
  run.record_digest_metric("soak_breaker_digest",
                           obs::hex_digest(report.breaker_digest));
  run.record_digest_metric("soak_telemetry_digest",
                           obs::hex_digest(report.telemetry_digest));
  run.record_metric("shots_per_second", report.shots_per_second,
                    MetricKind::kPerf, Direction::kHigherIsBetter, "1/s");
  run.record_metric("peak_queue_depth", static_cast<double>(peak_depth),
                    MetricKind::kPerf, Direction::kLowerIsBetter, "items");

  // Timeline headline metrics (--timeline): the epoch count and the
  // queue-wait share of modeled end-to-end latency per device class are
  // deterministic; per-stage queue-depth peaks are observational.
  if (obs::timeline_enabled()) {
    const obs::TimelineDoc timeline =
        obs::TimelineRecorder::global().snapshot();
    exact("timeline_epochs", static_cast<double>(timeline.epochs.size()));
    for (std::size_t s = 0; s < timeline.stages.size(); ++s) {
      long long depth_max = 0;
      for (const obs::TimelineEpoch& e : timeline.epochs)
        if (s < e.queues.size())
          depth_max = std::max(depth_max, e.queues[s].max);
      run.record_metric(
          "queue_depth_max." + bench::sanitize_metric_label(timeline.stages[s]),
          static_cast<double>(depth_max), MetricKind::kPerf,
          Direction::kLowerIsBetter, "items");
    }
    // Queue-wait share per class from the sampled traces: all inputs
    // are quantized microseconds from the deterministic sample set, so
    // the ratio is exact across threads and kill/resume. Classes with
    // no sampled traces report 0 so the metric set stays stable.
    std::vector<long long> wait_us(timeline.classes.size(), 0);
    std::vector<long long> total_us(timeline.classes.size(), 0);
    for (const obs::ShotTrace& t : timeline.traces) {
      if (t.cls < 0 || t.cls >= static_cast<int>(timeline.classes.size()))
        continue;
      wait_us[static_cast<std::size_t>(t.cls)] += t.queue_wait_us;
      total_us[static_cast<std::size_t>(t.cls)] +=
          t.queue_wait_us + t.service_us + t.backoff_us + t.delivery_us;
    }
    for (std::size_t c = 0; c < timeline.classes.size(); ++c) {
      const double share =
          total_us[c] > 0 ? static_cast<double>(wait_us[c]) /
                                static_cast<double>(total_us[c])
                          : 0.0;
      exact(("latency_queue_wait_share." +
             bench::sanitize_metric_label(timeline.classes[c]))
                .c_str(),
            share);
    }
  }

  // Per-device outcome CSV — written on every run (armed or not), and
  // deterministic at any --threads / across kill+resume, so the
  // timeline gate can assert byte-identity while arming the timeline.
  {
    CsvWriter csv({"device", "class", "ok", "correct", "shed", "rejected",
                   "timeouts", "capture_lost", "decode_lost",
                   "latency_us_sum", "breaker_state", "breaker_sticky"});
    for (std::size_t d = 0; d < report.agg.devices.size(); ++d) {
      const service::DeviceAggregate& row = report.agg.devices[d];
      std::string state = "?";
      std::string sticky = "?";
      if (d < report.sched.devices.size()) {
        const service::BreakerSnapshot& b = report.sched.devices[d].breaker;
        state = service::breaker_state_name(
            static_cast<service::BreakerState>(b.state));
        sticky = b.sticky ? "1" : "0";
      }
      csv.add_row(
          {std::to_string(d),
           fault::device_class_name(
               static_cast<fault::DeviceClass>(d % 3)),
           std::to_string(row.ok), std::to_string(row.correct),
           std::to_string(row.shed), std::to_string(row.rejected),
           std::to_string(row.timeouts), std::to_string(row.capture_lost),
           std::to_string(row.decode_lost),
           std::to_string(row.latency_us_sum), state, sticky});
    }
    run.write_csv(csv, run.name() + "_devices.csv");
  }

  // The aggregate must keep its own accounting to the end of the run:
  // the identities a resume demands of a checkpoint.
  const std::string broken = service::aggregate_inconsistency(
      report.agg, report.agg.slots_folded, report.devices,
      static_cast<long long>(obs::FaultLedger::global()
                                 .export_group_raw(service::kServiceLedgerGroup)
                                 .size()));
  if (!broken.empty()) {
    std::fprintf(stderr, "[soak] aggregate breaks its accounting: %s\n",
                 broken.c_str());
    run.fail();
  }

  // The offline artifact (edgestab_sentinel soak FILE re-renders it).
  std::string out_path =
      string_flag(argc, argv, "--soak-out", "bench_out/fleet_soak.soak.json");
  std::string dir;
  if (bench::ensure_out_dir(dir)) {
    std::string error;
    if (service::write_soak_report_file(out_path, report, &error)) {
      std::printf("soak report: %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "[soak] %s\n", error.c_str());
      run.fail();
    }
  }
  return run.finish();
}
