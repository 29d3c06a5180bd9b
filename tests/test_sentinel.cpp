// Tests for the cross-run regression sentinel: JSON parsing, float
// round-trip formatting, run-archive round trips, baseline derivation
// (median + MAD), and — most importantly — the comparison engine's edge
// cases: missing baselines, provenance mismatches, zero-MAD baselines,
// NaN/Inf values, and empty archives.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "obs/baseline.h"
#include "obs/compare.h"
#include "obs/json.h"
#include "obs/progress.h"
#include "util/file.h"

using namespace edgestab;
using obs::Baseline;
using obs::BaselineMetric;
using obs::CompareOptions;
using obs::CompareReport;
using obs::Direction;
using obs::MetricKind;
using obs::MetricSample;
using obs::MetricVerdict;
using obs::RepeatSample;
using obs::RunRecord;
using obs::Verdict;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

RunRecord sample_record() {
  RunRecord r;
  r.bench = "fig_test";
  r.git_sha = "abcdef0123456789";
  r.created_unix = 1700000000;
  r.has_seed = true;
  r.seed = 4242;
  r.threads = 2;
  r.digests = {{"lab_rig", "7c89074498ec8395"},
               {"workspace", "0a37fe48bbdd1708"},
               {"drift_report", "1111222233334444"}};
  r.repeats = {{1.0, 0.9, 0.05}, {2.0, 1.8, 0.1}, {10.0, 9.5, 0.2}};
  r.items = 100.0;
  r.max_rss_kb = 51200;
  r.stage_wall_ms = {{"stage.capture", 812.5}, {"stage.infer", 93.25}};
  MetricSample m;
  m.name = "instability";
  m.kind = MetricKind::kCorrectness;
  m.direction = Direction::kExact;
  m.value = 0.15;
  r.metrics.push_back(m);
  return r;
}

const MetricVerdict* find_verdict(const CompareReport& report,
                                  const std::string& name) {
  for (const MetricVerdict& v : report.verdicts)
    if (v.name == name) return &v;
  return nullptr;
}

// ---- format_double ---------------------------------------------------------

TEST(FormatDouble, RoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-17, 123456.789012345678,
                   -0.000123456789, 5.19, 2.0}) {
    std::string s = obs::format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(FormatDouble, UsesShortestForm) {
  EXPECT_EQ(obs::format_double(0.5), "0.5");
  EXPECT_EQ(obs::format_double(2.0), "2");
  EXPECT_EQ(obs::format_double(0.0), "0");
}

TEST(FormatDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(obs::format_double(std::numeric_limits<double>::infinity()),
            "null");
}

// ---- JSON parser -----------------------------------------------------------

TEST(JsonParser, ParsesNestedDocument) {
  auto doc = obs::parse_json(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}})");
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[2].number_or(0), -300.0);
  const obs::JsonValue* b = doc->find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->find("c")->string_or(""), "x\ny");
  EXPECT_TRUE(b->find("d")->boolean);
  EXPECT_TRUE(b->find("e")->is_null());
}

TEST(JsonParser, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::parse_json("{", &error).has_value());
  EXPECT_FALSE(obs::parse_json("{\"a\": }", &error).has_value());
  EXPECT_FALSE(obs::parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(obs::parse_json("{} trailing", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonParser, RoundTripsWriterOutput) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("pi").value(3.141592653589793);
  w.key("s").value("quote \" backslash \\ tab \t");
  w.end_object();
  auto doc = obs::parse_json(w.take());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("pi")->number_or(0), 3.141592653589793);
  EXPECT_EQ(doc->find("s")->string_or(""), "quote \" backslash \\ tab \t");
}

// ---- median / MAD ----------------------------------------------------------

TEST(Baseline, MedianAndMad) {
  EXPECT_EQ(obs::median_of({1.0, 2.0, 10.0}), 2.0);
  EXPECT_EQ(obs::median_of({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_EQ(obs::median_of({}), 0.0);
  EXPECT_EQ(obs::mad_of({1.0, 2.0, 10.0}, 2.0), 1.0);
  EXPECT_EQ(obs::mad_of({5.0, 5.0, 5.0}, 5.0), 0.0);
}

// ---- run archive -----------------------------------------------------------

TEST(RunArchive, RecordRoundTrips) {
  RunRecord original = sample_record();
  auto doc = obs::parse_json(obs::run_record_json(original));
  ASSERT_TRUE(doc.has_value());
  RunRecord parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_run_record(*doc, &parsed, &error)) << error;
  EXPECT_EQ(parsed.bench, original.bench);
  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_EQ(parsed.threads, original.threads);
  EXPECT_EQ(parsed.digests, original.digests);
  ASSERT_EQ(parsed.repeats.size(), 3u);
  EXPECT_EQ(parsed.repeats[2].wall_seconds, 10.0);
  EXPECT_EQ(parsed.stage_wall_ms, original.stage_wall_ms);
  ASSERT_EQ(parsed.metrics.size(), 1u);
  EXPECT_EQ(parsed.metrics[0].value, 0.15);
}

TEST(RunArchive, AppendAndLoad) {
  std::string path = temp_path("edgestab_test_runs.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(obs::append_run_record(path, sample_record()));
  RunRecord second = sample_record();
  second.bench = "other";
  ASSERT_TRUE(obs::append_run_record(path, second));
  std::vector<RunRecord> records;
  std::string error;
  ASSERT_TRUE(obs::load_run_records(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].bench, "other");
  std::remove(path.c_str());
}

TEST(RunArchive, EmptyArchiveLoadsZeroRecords) {
  std::string path = temp_path("edgestab_test_empty.jsonl");
  { std::ofstream out(path); }
  std::vector<RunRecord> records{sample_record()};
  std::string error;
  EXPECT_TRUE(obs::load_run_records(path, &records, &error)) << error;
  EXPECT_TRUE(records.empty());
  std::remove(path.c_str());
}

TEST(RunArchive, MissingArchiveIsAnError) {
  std::vector<RunRecord> records;
  std::string error;
  EXPECT_FALSE(obs::load_run_records(
      temp_path("edgestab_test_does_not_exist.jsonl"), &records, &error));
  EXPECT_FALSE(error.empty());
}

// A directory opens as a stream but does not read: every whole-file
// reader must refuse it, and a missing path, with a message naming it.
TEST(RunArchive, MissingPathAndDirectoryFailWithMessage) {
  const std::string missing = temp_path("edgestab_test_does_not_exist.json");
  const std::string dir = temp_path("edgestab_test_reader_dir");
  std::filesystem::create_directories(dir);
  for (const std::string& path : {missing, dir}) {
    std::string text = "untouched", error;
    EXPECT_FALSE(read_file(path, &text, &error)) << path;
    EXPECT_EQ(text, "untouched");
    EXPECT_NE(error.find(path), std::string::npos) << error;

    std::vector<RunRecord> records{sample_record()};
    error.clear();
    EXPECT_FALSE(obs::load_run_records(path, &records, &error)) << path;
    EXPECT_NE(error.find(path), std::string::npos) << error;

    Baseline baseline;
    error.clear();
    EXPECT_FALSE(obs::load_baseline(path, &baseline, &error)) << path;
    EXPECT_NE(error.find(path), std::string::npos) << error;
  }
  std::filesystem::remove(dir);
}

TEST(RunArchive, MalformedLineFailsWithLineNumber) {
  std::string path = temp_path("edgestab_test_bad.jsonl");
  {
    std::ofstream out(path);
    out << obs::run_record_json(sample_record()) << "\n";
    out << "{not json}\n";
  }
  std::vector<RunRecord> records;
  std::string error;
  EXPECT_FALSE(obs::load_run_records(path, &records, &error));
  EXPECT_NE(error.find(":2:"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(RunArchive, PruneKeepsNewestPerBenchInOriginalOrder) {
  std::string path = temp_path("edgestab_test_prune.jsonl");
  std::remove(path.c_str());
  // Interleave two benches: a0 b0 a1 a2 b1. keep=2 must drop only a0.
  for (const auto& [bench, stamp] :
       std::vector<std::pair<std::string, std::int64_t>>{{"a", 10},
                                                         {"b", 11},
                                                         {"a", 12},
                                                         {"a", 13},
                                                         {"b", 14}}) {
    RunRecord r = sample_record();
    r.bench = bench;
    r.created_unix = stamp;
    ASSERT_TRUE(obs::append_run_record(path, r));
  }
  std::size_t kept = 0, dropped = 0;
  std::string error;
  ASSERT_TRUE(obs::prune_run_archive(path, 2, &kept, &dropped, &error))
      << error;
  EXPECT_EQ(kept, 4u);
  EXPECT_EQ(dropped, 1u);
  std::vector<RunRecord> records;
  ASSERT_TRUE(obs::load_run_records(path, &records, &error)) << error;
  ASSERT_EQ(records.size(), 4u);
  // Survivors keep the original append order (compare's last-wins
  // "newest" convention still holds).
  EXPECT_EQ(records[0].created_unix, 11);
  EXPECT_EQ(records[1].created_unix, 12);
  EXPECT_EQ(records[2].created_unix, 13);
  EXPECT_EQ(records[3].created_unix, 14);
  // The tmp sibling must not survive the rename.
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);
  // Pruning again with a generous keep is a no-op.
  ASSERT_TRUE(obs::prune_run_archive(path, 10, &kept, &dropped, &error));
  EXPECT_EQ(kept, 4u);
  EXPECT_EQ(dropped, 0u);
  std::remove(path.c_str());
}

TEST(RunArchive, PruneRejectsZeroKeepAndMissingFile) {
  std::string error;
  EXPECT_FALSE(obs::prune_run_archive(
      temp_path("edgestab_test_prune_missing.jsonl"), 2, nullptr, nullptr,
      &error));
  EXPECT_FALSE(error.empty());
  std::string path = temp_path("edgestab_test_prune_zero.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(obs::append_run_record(path, sample_record()));
  EXPECT_FALSE(obs::prune_run_archive(path, 0, nullptr, nullptr, &error));
  std::remove(path.c_str());
}

// ---- baseline derivation ---------------------------------------------------

TEST(Baseline, DerivesPerfSummariesFromRepeats) {
  Baseline b = obs::baseline_from_record(sample_record());
  EXPECT_EQ(b.bench, "fig_test");
  EXPECT_EQ(b.threads, 2);
  // Provenance digests only; the drift_report output digest becomes a
  // digest *metric* instead.
  ASSERT_EQ(b.digests.size(), 2u);
  const BaselineMetric* wall = nullptr;
  const BaselineMetric* ips = nullptr;
  const BaselineMetric* drift = nullptr;
  for (const BaselineMetric& m : b.metrics) {
    if (m.name == "wall_seconds") wall = &m;
    if (m.name == "items_per_second") ips = &m;
    if (m.name == "digest.drift_report") drift = &m;
  }
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->median, 2.0);  // median of {1, 2, 10}
  EXPECT_EQ(wall->mad, 1.0);     // MAD around 2
  EXPECT_EQ(wall->n, 3);
  ASSERT_NE(ips, nullptr);
  EXPECT_EQ(ips->direction, Direction::kHigherIsBetter);
  EXPECT_EQ(ips->median, 50.0);  // median of {100, 50, 10}
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->kind, MetricKind::kDigest);
  EXPECT_EQ(drift->text, "1111222233334444");
}

TEST(Baseline, JsonRoundTrips) {
  Baseline original = obs::baseline_from_record(sample_record());
  std::string path = temp_path("edgestab_test_baseline.json");
  ASSERT_TRUE(obs::write_baseline(path, original));
  Baseline loaded;
  std::string error;
  ASSERT_TRUE(obs::load_baseline(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.bench, original.bench);
  EXPECT_EQ(loaded.digests, original.digests);
  ASSERT_EQ(loaded.metrics.size(), original.metrics.size());
  for (std::size_t i = 0; i < loaded.metrics.size(); ++i) {
    EXPECT_EQ(loaded.metrics[i].name, original.metrics[i].name);
    EXPECT_EQ(loaded.metrics[i].median, original.metrics[i].median);
    EXPECT_EQ(loaded.metrics[i].mad, original.metrics[i].mad);
  }
  std::remove(path.c_str());
}

// ---- comparison engine -----------------------------------------------------

TEST(Compare, UnchangedOnIdenticalRun) {
  RunRecord r = sample_record();
  CompareReport report = obs::compare_run(r, obs::baseline_from_record(r));
  EXPECT_TRUE(report.provenance_comparable);
  EXPECT_TRUE(report.perf_comparable);
  EXPECT_FALSE(report.has_regressions());
  EXPECT_EQ(report.count(Verdict::kIncomparable), 0);
}

TEST(Compare, SeedMismatchMakesEverythingIncomparable) {
  RunRecord r = sample_record();
  Baseline b = obs::baseline_from_record(r);
  r.seed = 9999;
  CompareReport report = obs::compare_run(r, b);
  EXPECT_FALSE(report.provenance_comparable);
  EXPECT_FALSE(report.has_regressions());
  for (const MetricVerdict& v : report.verdicts)
    EXPECT_EQ(v.verdict, Verdict::kIncomparable) << v.name;
}

TEST(Compare, ProvenanceDigestMismatchMakesEverythingIncomparable) {
  RunRecord r = sample_record();
  Baseline b = obs::baseline_from_record(r);
  r.digests[0].second = "ffffffffffffffff";  // lab_rig
  CompareReport report = obs::compare_run(r, b);
  EXPECT_FALSE(report.provenance_comparable);
  EXPECT_EQ(report.count(Verdict::kIncomparable),
            static_cast<int>(report.verdicts.size()));
}

TEST(Compare, FaultPlanMismatchMakesEverythingIncomparable) {
  RunRecord r = sample_record();
  Baseline b = obs::baseline_from_record(r);
  r.fault_plan = "drop=0.1";
  CompareReport report = obs::compare_run(r, b);
  EXPECT_FALSE(report.provenance_comparable);
  EXPECT_FALSE(report.has_regressions());
}

TEST(Compare, ThreadMismatchVoidsOnlyPerf) {
  RunRecord r = sample_record();
  Baseline b = obs::baseline_from_record(r);
  r.threads = 8;
  CompareReport report = obs::compare_run(r, b);
  EXPECT_TRUE(report.provenance_comparable);
  EXPECT_FALSE(report.perf_comparable);
  const MetricVerdict* wall = find_verdict(report, "wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->verdict, Verdict::kIncomparable);
  // Results are bit-deterministic at any thread count, so correctness
  // and digest metrics stay comparable.
  const MetricVerdict* inst = find_verdict(report, "instability");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->verdict, Verdict::kUnchanged);
  const MetricVerdict* drift = find_verdict(report, "digest.drift_report");
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->verdict, Verdict::kUnchanged);
}

TEST(Compare, ZeroMadStillHasTolerance) {
  RunRecord base = sample_record();
  base.repeats = {{2.0, 1.9, 0.05}};  // single repeat → MAD 0
  Baseline b = obs::baseline_from_record(base);
  RunRecord current = base;
  current.repeats = {{2.2, 2.1, 0.05}};  // +10%, inside the 25% rel band
  CompareReport report = obs::compare_run(current, b);
  const MetricVerdict* wall = find_verdict(report, "wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->verdict, Verdict::kUnchanged);
  EXPECT_GT(wall->band, 0.0);

  current.repeats = {{4.0, 3.9, 0.05}};  // 2x — well outside every band
  report = obs::compare_run(current, b);
  wall = find_verdict(report, "wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->verdict, Verdict::kRegressed);
}

TEST(Compare, PerfImprovementIsDirectionAware) {
  RunRecord base = sample_record();
  base.repeats = {{10.0, 9.5, 0.1}};
  Baseline b = obs::baseline_from_record(base);
  RunRecord current = base;
  current.repeats = {{4.0, 3.8, 0.1}};  // much faster
  CompareReport report = obs::compare_run(current, b);
  const MetricVerdict* wall = find_verdict(report, "wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->verdict, Verdict::kImproved);
  const MetricVerdict* ips = find_verdict(report, "items_per_second");
  ASSERT_NE(ips, nullptr);
  EXPECT_EQ(ips->verdict, Verdict::kImproved);
}

TEST(Compare, NanAndInfAreIncomparableNotUnchanged) {
  RunRecord base = sample_record();
  Baseline b = obs::baseline_from_record(base);
  RunRecord current = base;
  current.metrics[0].value = std::numeric_limits<double>::quiet_NaN();
  CompareReport report = obs::compare_run(current, b);
  const MetricVerdict* inst = find_verdict(report, "instability");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->verdict, Verdict::kIncomparable);

  current.metrics[0].value = std::numeric_limits<double>::infinity();
  report = obs::compare_run(current, b);
  inst = find_verdict(report, "instability");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->verdict, Verdict::kIncomparable);
}

TEST(Compare, NanSurvivesArchiveRoundTrip) {
  RunRecord r = sample_record();
  r.metrics[0].value = std::numeric_limits<double>::quiet_NaN();
  auto doc = obs::parse_json(obs::run_record_json(r));
  ASSERT_TRUE(doc.has_value());
  RunRecord parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_run_record(*doc, &parsed, &error)) << error;
  EXPECT_TRUE(std::isnan(parsed.metrics[0].value));
}

TEST(Compare, CorrectnessDriftOutsideEpsilonRegresses) {
  RunRecord base = sample_record();
  Baseline b = obs::baseline_from_record(base);
  RunRecord current = base;
  current.metrics[0].value = 0.151;  // was 0.15, epsilon 1e-12
  CompareReport report = obs::compare_run(current, b);
  const MetricVerdict* inst = find_verdict(report, "instability");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->verdict, Verdict::kRegressed);
  EXPECT_TRUE(report.has_regressions());
}

TEST(Compare, DeclaredEpsilonWidensCorrectnessBand) {
  RunRecord base = sample_record();
  base.metrics[0].epsilon = 0.01;
  Baseline b = obs::baseline_from_record(base);
  RunRecord current = base;
  current.metrics[0].value = 0.155;  // within the declared 0.01
  CompareReport report = obs::compare_run(current, b);
  const MetricVerdict* inst = find_verdict(report, "instability");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->verdict, Verdict::kUnchanged);
}

TEST(Compare, OutputDigestMismatchRegresses) {
  RunRecord base = sample_record();
  Baseline b = obs::baseline_from_record(base);
  RunRecord current = base;
  current.digests[2].second = "deadbeefdeadbeef";  // drift_report (output)
  CompareReport report = obs::compare_run(current, b);
  const MetricVerdict* drift = find_verdict(report, "digest.drift_report");
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->verdict, Verdict::kRegressed);
}

TEST(Compare, MissingMetricsAreIncomparableBothWays) {
  RunRecord base = sample_record();
  Baseline b = obs::baseline_from_record(base);
  RunRecord current = base;
  current.metrics[0].name = "renamed_metric";
  CompareReport report = obs::compare_run(current, b);
  const MetricVerdict* gone = find_verdict(report, "instability");
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(gone->verdict, Verdict::kIncomparable);
  const MetricVerdict* added = find_verdict(report, "renamed_metric");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->verdict, Verdict::kIncomparable);
  EXPECT_FALSE(report.has_regressions());
}

TEST(Compare, EmptyRepeatsYieldNoPerfVerdicts) {
  RunRecord base = sample_record();
  base.repeats.clear();
  Baseline b = obs::baseline_from_record(base);
  for (const BaselineMetric& m : b.metrics)
    EXPECT_NE(m.kind, MetricKind::kPerf) << m.name;
  RunRecord current = sample_record();
  CompareReport report = obs::compare_run(current, b);
  EXPECT_FALSE(report.has_regressions());
}

TEST(Compare, ReportJsonParses) {
  RunRecord r = sample_record();
  CompareReport report = obs::compare_run(r, obs::baseline_from_record(r));
  auto doc = obs::parse_json(obs::compare_report_json(report));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->string_or(""), "edgestab-compare-v1");
  EXPECT_EQ(doc->find("counts")->find("regressed")->number_or(-1), 0.0);
}

// ---- trend report ----------------------------------------------------------

TEST(Trend, HtmlIsSelfContainedAndMarksRegressions) {
  RunRecord first = sample_record();
  RunRecord second = sample_record();
  second.repeats = {{30.0, 29.0, 0.5}};  // way slower than baseline
  Baseline b = obs::baseline_from_record(first);
  std::string html = obs::trend_html({first, second}, {b});
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("fig_test"), std::string::npos);
  EXPECT_NE(html.find("regressed vs baseline"), std::string::npos);
  EXPECT_EQ(html.find("<script src"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
}

TEST(Trend, RendersWithoutBaselines) {
  std::string html = obs::trend_html({sample_record()}, {});
  EXPECT_NE(html.find("no committed baseline"), std::string::npos);
  EXPECT_EQ(html.find("regressed vs baseline"), std::string::npos);
}

// ---- progress meter --------------------------------------------------------

TEST(Progress, DisabledMeterStaysSilentAndCounts) {
  obs::ProgressMeter meter("test", 10, /*enabled=*/false);
  meter.tick(3);
  meter.tick(7);
  meter.finish();
  EXPECT_EQ(meter.done(), 10);
  EXPECT_FALSE(meter.enabled());
}

}  // namespace
