// edgestab_sentinel — the cross-run regression sentinel CLI.
//
//   edgestab_sentinel compare --bench fig3 [--runs bench_out/runs.jsonl]
//       [--baseline FILE | --baseline-dir baselines] [--rel-tol 0.25]
//       [--mad-k 5] [--perf-advisory] [--json]
//     Diff the newest archived record of a bench against its committed
//     baseline. Exit 0 = no regressions, 2 = regressions present,
//     1 = usage/IO error.
//
//   edgestab_sentinel trend [--runs FILE] [--out bench_out/trend.html]
//       [--baseline-dir baselines]
//     Render the self-contained HTML trend report over the whole run
//     archive, marking points that regress against their baseline.
//
//   edgestab_sentinel list [--runs FILE]
//     One line per archived run.
//
//   edgestab_sentinel hotspots FILE [--top N]
//     Render the hotspot table of a <bench>.profile.json written by a
//     --profile run.
//
//   edgestab_sentinel fleet FILE [--format text|html] [--out FILE]
//     Re-render the fleet health dashboard (or the per-device terminal
//     table) offline from a <bench>.fleet.json written by a --telemetry
//     run.
//
//   edgestab_sentinel soak FILE [--devices N]
//     Re-render a streaming-service soak report offline from a
//     <bench>.soak.json written by bench_fleet_soak: outcome mix, stage
//     queue pressure, breaker totals, the modeled latency tail and the
//     N busiest-failing devices.
//
//   edgestab_sentinel timeline FILE [--out FILE]
//     Summarize a <bench>.timeline.json written by a --timeline run:
//     epoch geometry, per-outcome totals reconciled against the shot
//     count, breaker transitions and sampled traces. With --out, re-
//     render the self-contained timeline.html — byte-identical to the
//     one the bench wrote, because the HTML is a pure function of the
//     parsed document.
//
//   edgestab_sentinel prune FILE --keep N
//     Rewrite the run archive keeping only the newest N records per
//     bench (bench names carry the tier suffix, so per (bench, tier)).
//     Crash-safe: tmp sibling + atomic rename.
//
// Baselines are refreshed with scripts/refresh_baselines.sh, which
// copies the candidate BENCH_<name>.json files a bench run emits into
// the committed baselines/ directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <vector>

#include "obs/baseline.h"
#include "obs/compare.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/profiler.h"
#include "obs/telemetry/fleet_report.h"
#include "obs/timeline/timeline.h"
#include "obs/timeline/timeline_report.h"
#include "util/file.h"
#include "util/table.h"

using namespace edgestab;

namespace {

constexpr char kDefaultRuns[] = "bench_out/runs.jsonl";
constexpr char kDefaultBaselineDir[] = "baselines";

int usage() {
  std::fprintf(
      stderr,
      "usage: edgestab_sentinel <compare|trend|list> [options]\n"
      "  compare --bench NAME [--runs FILE] [--baseline FILE]\n"
      "          [--baseline-dir DIR] [--rel-tol X] [--mad-k X]\n"
      "          [--perf-advisory] [--json]\n"
      "  trend   [--runs FILE] [--out FILE] [--baseline-dir DIR]\n"
      "  list    [--runs FILE]\n"
      "  hotspots FILE [--top N]\n"
      "  fleet   FILE [--format text|html] [--out FILE]\n"
      "  soak    FILE [--devices N]\n"
      "  timeline FILE [--out FILE]\n"
      "  prune   FILE --keep N\n");
  return 1;
}

/// `--flag value` / `--flag=value` option scanner.
bool option_value(int argc, char** argv, int& i, const char* flag,
                  std::string* out) {
  std::string arg = argv[i];
  std::string prefix = std::string(flag) + "=";
  if (arg == flag && i + 1 < argc) {
    *out = argv[++i];
    return true;
  }
  if (arg.rfind(prefix, 0) == 0) {
    *out = arg.substr(prefix.size());
    return true;
  }
  return false;
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

int cmd_compare(int argc, char** argv) {
  std::string bench, runs_path = kDefaultRuns, baseline_path;
  std::string baseline_dir = kDefaultBaselineDir;
  obs::CompareOptions options;
  bool perf_advisory = false, as_json = false;
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (option_value(argc, argv, i, "--bench", &bench) ||
        option_value(argc, argv, i, "--runs", &runs_path) ||
        option_value(argc, argv, i, "--baseline", &baseline_path) ||
        option_value(argc, argv, i, "--baseline-dir", &baseline_dir))
      continue;
    if (option_value(argc, argv, i, "--rel-tol", &value)) {
      options.perf_rel_tol = std::atof(value.c_str());
      continue;
    }
    if (option_value(argc, argv, i, "--mad-k", &value)) {
      options.perf_mad_k = std::atof(value.c_str());
      continue;
    }
    if (std::strcmp(argv[i], "--perf-advisory") == 0) {
      perf_advisory = true;
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      as_json = true;
      continue;
    }
    std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
    return usage();
  }
  if (bench.empty()) {
    std::fprintf(stderr, "sentinel: compare requires --bench NAME\n");
    return usage();
  }

  std::vector<obs::RunRecord> records;
  std::string error;
  if (!obs::load_run_records(runs_path, &records, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  const obs::RunRecord* latest = nullptr;
  for (const obs::RunRecord& r : records)
    if (r.bench == bench) latest = &r;  // archive is append-only: last wins
  if (latest == nullptr) {
    std::fprintf(stderr,
                 "sentinel: no archived run of '%s' in %s — run the bench "
                 "first\n",
                 bench.c_str(), runs_path.c_str());
    return 1;
  }

  if (baseline_path.empty())
    baseline_path = baseline_dir + "/BENCH_" + bench + ".json";
  if (!file_exists(baseline_path)) {
    std::fprintf(stderr,
                 "sentinel: no baseline at %s — refresh with "
                 "scripts/refresh_baselines.sh (or pass --baseline FILE)\n",
                 baseline_path.c_str());
    return 1;
  }
  obs::Baseline baseline;
  if (!obs::load_baseline(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }

  obs::CompareReport report = obs::compare_run(*latest, baseline, options);
  if (as_json)
    std::printf("%s\n", obs::compare_report_json(report).c_str());
  else
    std::printf("%s", obs::compare_report_text(report).c_str());

  int blocking = 0;
  for (const obs::MetricVerdict& v : report.verdicts) {
    if (v.verdict != obs::Verdict::kRegressed) continue;
    if (perf_advisory && v.kind == obs::MetricKind::kPerf) {
      if (!as_json)
        std::printf("  (perf regression on '%s' is advisory)\n",
                    v.name.c_str());
      continue;
    }
    ++blocking;
  }
  return blocking > 0 ? 2 : 0;
}

int cmd_trend(int argc, char** argv) {
  std::string runs_path = kDefaultRuns, out_path = "bench_out/trend.html";
  std::string baseline_dir = kDefaultBaselineDir;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--runs", &runs_path) ||
        option_value(argc, argv, i, "--out", &out_path) ||
        option_value(argc, argv, i, "--baseline-dir", &baseline_dir))
      continue;
    std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
    return usage();
  }
  std::vector<obs::RunRecord> records;
  std::string error;
  if (!obs::load_run_records(runs_path, &records, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }

  std::vector<obs::Baseline> baselines;
  std::vector<std::string> seen;
  for (const obs::RunRecord& r : records) {
    bool done = false;
    for (const std::string& s : seen) done = done || s == r.bench;
    if (done) continue;
    seen.push_back(r.bench);
    std::string path = baseline_dir + "/BENCH_" + r.bench + ".json";
    if (!file_exists(path)) continue;  // trends render fine without one
    obs::Baseline baseline;
    if (obs::load_baseline(path, &baseline, &error))
      baselines.push_back(std::move(baseline));
    else
      std::fprintf(stderr, "sentinel: skipping %s: %s\n", path.c_str(),
                   error.c_str());
  }

  if (!write_file_logged(out_path, obs::trend_html(records, baselines),
                         "sentinel:"))
    return 1;
  std::printf("sentinel: %s (%zu run(s), %zu baseline(s))\n",
              out_path.c_str(), records.size(), baselines.size());
  return 0;
}

int cmd_list(int argc, char** argv) {
  std::string runs_path = kDefaultRuns;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--runs", &runs_path)) continue;
    std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
    return usage();
  }
  std::vector<obs::RunRecord> records;
  std::string error;
  if (!obs::load_run_records(runs_path, &records, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  std::printf("%-20s %-20s %-14s %7s %9s %7s %s\n", "bench", "when",
              "git", "threads", "wall[s]", "items", "faults");
  for (const obs::RunRecord& r : records) {
    std::vector<double> wall;
    for (const obs::RepeatSample& s : r.repeats)
      wall.push_back(s.wall_seconds);
    char when[32] = "-";
    if (r.created_unix > 0) {
      std::time_t t = static_cast<std::time_t>(r.created_unix);
      std::tm tm = {};
#if defined(_WIN32)
      gmtime_s(&tm, &t);
#else
      gmtime_r(&t, &tm);
#endif
      std::strftime(when, sizeof(when), "%Y-%m-%d %H:%M:%S", &tm);
    }
    std::printf("%-20s %-20s %-14.14s %7d %9.3f %7.0f %s\n",
                r.bench.c_str(), when, r.git_sha.c_str(), r.threads,
                obs::median_of(wall), r.items,
                r.fault_plan.empty() ? "-" : r.fault_plan.c_str());
  }
  return 0;
}

int cmd_hotspots(int argc, char** argv) {
  std::string path;
  std::size_t top_n = 12;
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (option_value(argc, argv, i, "--top", &value)) {
      top_n = static_cast<std::size_t>(std::atoi(value.c_str()));
      continue;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
      return usage();
    }
    if (!path.empty()) {
      std::fprintf(stderr, "sentinel: hotspots takes one profile file\n");
      return usage();
    }
    path = argv[i];
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "sentinel: hotspots requires a <bench>.profile.json\n");
    return usage();
  }

  std::string text, error;
  if (!read_file(path, &text, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  std::optional<obs::JsonValue> doc = obs::parse_json(text, &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  obs::ProfileDoc profile;
  if (!obs::parse_profile(*doc, &profile, &error)) {
    std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  std::printf("%s — profile digest %s\n", profile.bench.c_str(),
              profile.digest.c_str());
  std::printf("%s", obs::hotspot_table(profile.nodes, top_n).c_str());
  std::printf(
      "allocs: %llu (%.2f MiB), peak live %.2f MiB\n",
      static_cast<unsigned long long>(profile.totals.alloc_count),
      static_cast<double>(profile.totals.alloc_bytes) / (1024.0 * 1024.0),
      static_cast<double>(profile.totals.peak_live_bytes) /
          (1024.0 * 1024.0));
  return 0;
}

int cmd_fleet(int argc, char** argv) {
  std::string path, format = "text", out_path;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--format", &format) ||
        option_value(argc, argv, i, "--out", &out_path))
      continue;
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
      return usage();
    }
    if (!path.empty()) {
      std::fprintf(stderr, "sentinel: fleet takes one fleet.json file\n");
      return usage();
    }
    path = argv[i];
  }
  if (path.empty()) {
    std::fprintf(stderr, "sentinel: fleet requires a <bench>.fleet.json\n");
    return usage();
  }
  if (format != "text" && format != "html") {
    std::fprintf(stderr, "sentinel: --format must be text or html\n");
    return usage();
  }

  std::string text, error;
  if (!read_file(path, &text, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  std::optional<obs::JsonValue> doc = obs::parse_json(text, &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  obs::FleetDoc fleet;
  if (!obs::parse_fleet(*doc, &fleet, &error)) {
    std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  if (format == "html") {
    std::string html = obs::fleet_html(fleet.report, fleet.bench);
    if (out_path.empty()) {
      std::printf("%s", html.c_str());
      return 0;
    }
    if (!write_file_logged(out_path, html, "sentinel:")) return 1;
    std::printf("sentinel: %s (%zu device(s), %zu alert(s))\n",
                out_path.c_str(), fleet.report.fleet.devices.size(),
                fleet.report.alerts.total());
    return 0;
  }
  std::printf("%s — fleet health (alert digest %s)\n", fleet.bench.c_str(),
              obs::hex_digest(fleet.report.alerts.digest()).c_str());
  std::printf("%s", obs::fleet_text(fleet.report).c_str());
  return 0;
}

int cmd_timeline(int argc, char** argv) {
  std::string path, out_path;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--out", &out_path)) continue;
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
      return usage();
    }
    if (!path.empty()) {
      std::fprintf(stderr, "sentinel: timeline takes one timeline.json file\n");
      return usage();
    }
    path = argv[i];
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "sentinel: timeline requires a <bench>.timeline.json\n");
    return usage();
  }

  std::string text, error;
  if (!read_file(path, &text, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  obs::TimelineDoc doc;
  if (!obs::parse_timeline(text, &doc, &error)) {
    std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  std::printf("%s — timeline digest %s\n",
              doc.bench.empty() ? path.c_str() : doc.bench.c_str(),
              obs::hex_digest(obs::timeline_digest(doc)).c_str());
  std::printf(
      "%zu epoch(s) x %d slots (%lld slots total), trace sample %lld ppm\n",
      doc.epochs.size(), doc.epoch_slots, doc.slots_total,
      doc.trace_sample_ppm);

  // Per-outcome totals are the sum of the per-epoch deltas; their grand
  // total must reconcile exactly against the shots the run folded.
  std::vector<long long> totals(doc.outcomes.size(), 0);
  long long accounted = 0;
  for (const obs::TimelineEpoch& e : doc.epochs)
    for (std::size_t o = 0; o < e.outcomes.size() && o < totals.size(); ++o) {
      totals[o] += e.outcomes[o];
      accounted += e.outcomes[o];
    }
  Table t({"OUTCOME", "SHOTS", "SHARE"});
  for (std::size_t o = 0; o < doc.outcomes.size(); ++o)
    t.add_row({doc.outcomes[o], std::to_string(totals[o]),
               Table::pct(static_cast<double>(totals[o]) /
                          static_cast<double>(std::max(1LL, accounted)))});
  std::printf("%s", t.str().c_str());
  std::printf("shots accounted: %lld\n", accounted);

  std::printf("breaker transitions: %zu\n", doc.transitions.size());
  if (!doc.transitions.empty()) {
    Table tt({"DEVICE", "EPOCH", "SLOT", "FROM", "TO", "CAUSE"});
    for (const obs::BreakerTransition& tr : doc.transitions)
      tt.add_row({std::to_string(tr.device), std::to_string(tr.epoch),
                  std::to_string(tr.slot), obs::timeline_census_name(tr.from),
                  obs::timeline_census_name(tr.to), tr.cause});
    std::printf("%s", tt.str().c_str());
  }
  std::printf("traces: %zu sampled, %lld dropped at the cap\n",
              doc.traces.size(), doc.traces_dropped);

  if (!out_path.empty()) {
    if (!write_file_logged(out_path, obs::timeline_html(doc), "sentinel:"))
      return 1;
    std::printf("sentinel: %s (%zu epoch(s), %zu transition(s))\n",
                out_path.c_str(), doc.epochs.size(), doc.transitions.size());
  }
  return 0;
}

int cmd_prune(int argc, char** argv) {
  std::string path, keep_s;
  for (int i = 2; i < argc; ++i) {
    if (option_value(argc, argv, i, "--keep", &keep_s)) continue;
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
      return usage();
    }
    if (!path.empty()) {
      std::fprintf(stderr, "sentinel: prune takes one runs.jsonl file\n");
      return usage();
    }
    path = argv[i];
  }
  if (path.empty() || keep_s.empty()) {
    std::fprintf(stderr, "sentinel: prune requires FILE and --keep N\n");
    return usage();
  }
  long keep = std::atol(keep_s.c_str());
  if (keep <= 0) {
    std::fprintf(stderr, "sentinel: --keep must be a positive integer\n");
    return usage();
  }
  std::size_t kept = 0, dropped = 0;
  std::string error;
  if (!obs::prune_run_archive(path, static_cast<std::size_t>(keep), &kept,
                              &dropped, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "sentinel: %s pruned to the newest %ld per bench — kept %zu "
      "record(s), dropped %zu\n",
      path.c_str(), keep, kept, dropped);
  return 0;
}

}  // namespace

int cmd_soak(int argc, char** argv) {
  std::string path;
  int top_devices = 8;
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (option_value(argc, argv, i, "--devices", &value)) {
      top_devices = std::atoi(value.c_str());
      continue;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr, "sentinel: unknown option '%s'\n", argv[i]);
      return usage();
    }
    if (!path.empty()) {
      std::fprintf(stderr, "sentinel: soak takes one soak.json file\n");
      return usage();
    }
    path = argv[i];
  }
  if (path.empty()) {
    std::fprintf(stderr, "sentinel: soak requires a <bench>.soak.json\n");
    return usage();
  }

  std::string text, error;
  if (!read_file(path, &text, &error)) {
    std::fprintf(stderr, "sentinel: %s\n", error.c_str());
    return 1;
  }
  std::optional<obs::JsonValue> doc = obs::parse_json(text, &error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "sentinel: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const obs::JsonValue* format = doc->find("format");
  if (format == nullptr || format->string_or("") != "edgestab-soak-v1") {
    std::fprintf(stderr, "sentinel: %s is not an edgestab-soak-v1 report\n",
                 path.c_str());
    return 1;
  }

  auto num = [](const obs::JsonValue* obj, const char* key) -> long long {
    if (obj == nullptr) return 0;
    const obs::JsonValue* v = obj->find(key);
    return v == nullptr
               ? 0
               : static_cast<long long>(std::llround(v->number_or(0.0)));
  };
  const obs::JsonValue* agg = doc->find("aggregate");
  const obs::JsonValue* breaker = doc->find("breaker");
  const obs::JsonValue* digests = doc->find("digests");
  const obs::JsonValue* latency = doc->find("latency_us");

  const long long shots = num(&*doc, "shots");
  std::printf("%s — %lld devices x %lld slots (%lld shots)%s\n",
              path.c_str(), num(&*doc, "devices"), num(&*doc, "slots"),
              shots,
              doc->find("completed") != nullptr &&
                      doc->find("completed")->boolean
                  ? ""
                  : " [incomplete]");
  const long long resumed = num(&*doc, "resumed_from_slot");
  if (resumed >= 0)
    std::printf("resumed from slot %lld, %lld checkpoint(s) written\n",
                resumed, num(&*doc, "checkpoints_written"));
  if (digests != nullptr) {
    const obs::JsonValue* a = digests->find("aggregate");
    const obs::JsonValue* l = digests->find("ledger");
    const obs::JsonValue* b = digests->find("breaker");
    std::printf("digests: aggregate %s  ledger %s  breaker %s\n",
                a ? a->string_or("?").c_str() : "?",
                l ? l->string_or("?").c_str() : "?",
                b ? b->string_or("?").c_str() : "?");
  }

  const long long folded = std::max(1LL, num(agg, "shots_folded"));
  Table outcomes({"OUTCOME", "SHOTS", "SHARE"});
  auto outcome_row = [&](const char* label, const char* key) {
    const long long n = num(agg, key);
    outcomes.add_row({label, std::to_string(n),
                      Table::pct(static_cast<double>(n) /
                                 static_cast<double>(folded))});
  };
  outcome_row("ok", "ok");
  outcome_row("shed", "shed");
  outcome_row("breaker-reject", "rejected");
  outcome_row("deadline-timeout", "timeouts");
  outcome_row("capture-lost", "capture_lost");
  outcome_row("decode-lost", "decode_lost");
  std::printf("%s", outcomes.str().c_str());
  std::printf(
      "slots: %lld fully covered, %lld degraded, %lld lost; "
      "%lld unstable of %lld observed\n",
      num(agg, "slots_fully_covered"), num(agg, "slots_degraded"),
      num(agg, "slots_lost"), num(agg, "unstable_slots"),
      num(agg, "slots_observed"));
  std::printf(
      "breaker: %lld open(s), %lld close(s), %lld reject(s); end state "
      "%lld open / %lld half-open / %lld sticky\n",
      num(breaker, "opens"), num(breaker, "closes"),
      num(breaker, "rejects"), num(breaker, "open_devices"),
      num(breaker, "half_open_devices"), num(breaker, "sticky_devices"));
  if (latency != nullptr)
    std::printf(
        "latency (modeled): p50 %.1f ms  p99 %.1f ms  p99.9 %.1f ms  "
        "max %.1f ms\n",
        static_cast<double>(num(latency, "p50")) / 1000.0,
        static_cast<double>(num(latency, "p99")) / 1000.0,
        static_cast<double>(num(latency, "p999")) / 1000.0,
        static_cast<double>(num(latency, "max")) / 1000.0);

  const obs::JsonValue* stages = doc->find("stages");
  if (stages != nullptr && stages->is_array()) {
    Table t({"STAGE", "WORKERS", "CAP", "HIGH-WATER", "PROCESSED"});
    for (const obs::JsonValue& s : stages->items) {
      const obs::JsonValue* name = s.find("name");
      t.add_row({name ? name->string_or("?") : "?",
                 std::to_string(num(&s, "workers")),
                 std::to_string(num(&s, "capacity")),
                 std::to_string(num(&s, "high_water")),
                 std::to_string(num(&s, "processed"))});
    }
    std::printf("%s", t.str().c_str());
  }

  // The N devices losing the most shots, worst first.
  const obs::JsonValue* rows = doc->find("device_rows");
  if (rows != nullptr && rows->is_array() && top_devices > 0) {
    std::vector<const obs::JsonValue*> worst;
    for (const obs::JsonValue& r : rows->items) worst.push_back(&r);
    auto lost = [&](const obs::JsonValue* r) {
      return num(r, "timeouts") + num(r, "rejected") + num(r, "shed") +
             num(r, "capture_lost") + num(r, "decode_lost");
    };
    std::stable_sort(worst.begin(), worst.end(),
                     [&](const obs::JsonValue* a, const obs::JsonValue* b) {
                       return lost(a) > lost(b);
                     });
    if (worst.size() > static_cast<std::size_t>(top_devices))
      worst.resize(static_cast<std::size_t>(top_devices));
    Table t({"DEVICE", "OK", "SHED", "REJECT", "TIMEOUT", "LOST",
             "BREAKER"});
    for (const obs::JsonValue* r : worst) {
      const obs::JsonValue* state = r->find("breaker_state");
      const obs::JsonValue* sticky = r->find("breaker_sticky");
      std::string breaker_cell =
          state != nullptr ? state->string_or("?") : "?";
      if (sticky != nullptr && sticky->boolean) breaker_cell += " (sticky)";
      t.add_row({std::to_string(num(r, "device")),
                 std::to_string(num(r, "ok")),
                 std::to_string(num(r, "shed")),
                 std::to_string(num(r, "rejected")),
                 std::to_string(num(r, "timeouts")),
                 std::to_string(num(r, "capture_lost") +
                                num(r, "decode_lost")),
                 breaker_cell});
    }
    std::printf("worst devices:\n%s", t.str().c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  if (command == "compare") return cmd_compare(argc, argv);
  if (command == "trend") return cmd_trend(argc, argv);
  if (command == "list") return cmd_list(argc, argv);
  if (command == "hotspots") return cmd_hotspots(argc, argv);
  if (command == "fleet") return cmd_fleet(argc, argv);
  if (command == "soak") return cmd_soak(argc, argv);
  if (command == "timeline") return cmd_timeline(argc, argv);
  if (command == "prune") return cmd_prune(argc, argv);
  std::fprintf(stderr, "sentinel: unknown command '%s'\n", command.c_str());
  return usage();
}
