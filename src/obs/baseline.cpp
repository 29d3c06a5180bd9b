#include "obs/baseline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "obs/manifest.h"
#include "obs/metrics.h"
#include "util/file.h"

namespace edgestab::obs {

namespace {

constexpr char kRunRecordSchema[] = "edgestab-run-record-v1";
constexpr char kBaselineSchema[] = "edgestab-baseline-v1";
constexpr bool kOptional = JsonValue::kOptional;

/// Numeric member with NaN for an explicit JSON null (the writer's
/// rendering of NaN/Inf) and `fallback` when absent or mistyped.
double number_member(const JsonValue& obj, const char* key,
                     double fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->is_null()) return std::numeric_limits<double>::quiet_NaN();
  return v->number_or(fallback);
}

std::string string_member(const JsonValue& obj, const char* key,
                          std::string fallback = "") {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? fallback : v->string_or(std::move(fallback));
}

void emit_digests(
    JsonWriter& w,
    const std::vector<std::pair<std::string, std::string>>& digests) {
  w.key("digests");
  w.begin_object();
  for (const auto& [name, hex] : digests) w.key(name).value(hex);
  w.end_object();
}

std::vector<std::pair<std::string, std::string>> parse_digests(
    const JsonValue& doc) {
  std::vector<std::pair<std::string, std::string>> out;
  const JsonValue* digests = doc.find("digests");
  if (digests != nullptr && digests->is_object())
    for (const auto& [name, value] : digests->members)
      out.emplace_back(name, value.string_or(""));
  return out;
}

/// A `seed` member: hex_digest's 16-hex string, or the older integer
/// form when it is exact — below 2^53, where a double holds every integer.
bool read_seed(const JsonValue& v, std::uint64_t* out) {
  std::optional<std::uint64_t> n = v.as_hex_u64();
  if (!v.is_string()) {
    n = v.as_uint<std::uint64_t>();
    if (n && *n >= (std::uint64_t{1} << 53)) n.reset();
  }
  if (n) *out = *n;
  return n.has_value();
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kPerf: return "perf";
    case MetricKind::kCorrectness: return "correctness";
    case MetricKind::kDigest: return "digest";
  }
  return "unknown";
}

const char* direction_name(Direction direction) {
  switch (direction) {
    case Direction::kLowerIsBetter: return "lower";
    case Direction::kHigherIsBetter: return "higher";
    case Direction::kExact: return "exact";
  }
  return "unknown";
}

std::optional<MetricKind> parse_metric_kind(const std::string& name) {
  if (name == "perf") return MetricKind::kPerf;
  if (name == "correctness") return MetricKind::kCorrectness;
  if (name == "digest") return MetricKind::kDigest;
  return std::nullopt;
}

std::optional<Direction> parse_direction(const std::string& name) {
  if (name == "lower") return Direction::kLowerIsBetter;
  if (name == "higher") return Direction::kHigherIsBetter;
  if (name == "exact") return Direction::kExact;
  return std::nullopt;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mad_of(const std::vector<double>& values, double median) {
  if (values.empty()) return 0.0;
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - median));
  return median_of(std::move(deviations));
}

bool is_provenance_digest(const std::string& name) {
  return name == "lab_rig" || name == "workspace" || name == "fault_plan" ||
         name.rfind("isp_", 0) == 0;
}

std::vector<std::pair<std::string, double>> stage_wall_ms_from_registry() {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, summary] :
       MetricsRegistry::global().histograms()) {
    if (summary.count == 0) continue;
    out.emplace_back(name, static_cast<double>(summary.sum) / 1e6);
  }
  return out;  // registry snapshots are already name-sorted
}

std::string run_record_json(const RunRecord& record) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kRunRecordSchema);
  w.key("bench").value(record.bench);
  w.key("created_unix").value(record.created_unix);
  w.key("git_sha").value(record.git_sha);
  if (record.has_seed) w.key("seed").value(hex_digest(record.seed));
  w.key("threads").value(record.threads);
  w.key("fault_plan").value(record.fault_plan);
  w.key("items").value(record.items);
  w.key("max_rss_kb").value(static_cast<std::int64_t>(record.max_rss_kb));
  emit_digests(w, record.digests);
  w.key("repeats");
  w.begin_array();
  for (const RepeatSample& r : record.repeats) {
    w.begin_object();
    w.key("wall_seconds").value(r.wall_seconds);
    w.key("user_seconds").value(r.user_seconds);
    w.key("sys_seconds").value(r.sys_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("stage_wall_ms");
  w.begin_object();
  for (const auto& [stage, ms] : record.stage_wall_ms) w.key(stage).value(ms);
  w.end_object();
  w.key("metrics");
  w.begin_array();
  for (const MetricSample& m : record.metrics) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("kind").value(metric_kind_name(m.kind));
    w.key("direction").value(direction_name(m.direction));
    w.key("unit").value(m.unit);
    if (m.kind == MetricKind::kDigest) {
      w.key("text").value(m.text);
    } else {
      w.key("value").value(m.value);
      if (m.epsilon > 0.0) w.key("epsilon").value(m.epsilon);
      if (m.abs_floor > 0.0) w.key("abs_floor").value(m.abs_floor);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool append_run_record(const std::string& path, const RunRecord& record) {
  return write_file_logged(path, run_record_json(record) + '\n',
                           "[archive]", /*append=*/true);
}

bool parse_run_record(const JsonValue& doc, RunRecord* out,
                      std::string* error) {
  if (!doc.is_object()) {
    if (error != nullptr) *error = "run record is not a JSON object";
    return false;
  }
  if (string_member(doc, "schema") != kRunRecordSchema) {
    if (error != nullptr)
      *error = "missing or unknown schema (want " +
               std::string(kRunRecordSchema) + ")";
    return false;
  }
  RunRecord record;
  record.bench = string_member(doc, "bench");
  if (record.bench.empty()) {
    if (error != nullptr) *error = "run record has no bench name";
    return false;
  }
  record.git_sha = string_member(doc, "git_sha");
  if (!doc.read_int("created_unix", &record.created_unix, kOptional) ||
      !doc.read_int("threads", &record.threads, kOptional) ||
      !doc.read_int("max_rss_kb", &record.max_rss_kb, kOptional)) {
    if (error != nullptr)
      *error = "run record has a non-integer created_unix, threads or "
               "max_rss_kb";
    return false;
  }
  if (doc.find("seed") != nullptr) {
    record.has_seed = true;
    if (!read_seed(*doc.find("seed"), &record.seed)) {
      if (error != nullptr)
        *error =
            "run record seed is neither a hex string nor an exact integer";
      return false;
    }
  }
  record.fault_plan = string_member(doc, "fault_plan");
  record.items = number_member(doc, "items", 0.0);
  record.digests = parse_digests(doc);
  if (const JsonValue* repeats = doc.find("repeats");
      repeats != nullptr && repeats->is_array()) {
    for (const JsonValue& r : repeats->items) {
      RepeatSample sample;
      sample.wall_seconds = number_member(r, "wall_seconds", 0.0);
      sample.user_seconds = number_member(r, "user_seconds", 0.0);
      sample.sys_seconds = number_member(r, "sys_seconds", 0.0);
      record.repeats.push_back(sample);
    }
  }
  if (const JsonValue* stages = doc.find("stage_wall_ms");
      stages != nullptr && stages->is_object()) {
    for (const auto& [stage, ms] : stages->members)
      record.stage_wall_ms.emplace_back(stage, ms.number_or(0.0));
  }
  if (const JsonValue* metrics = doc.find("metrics");
      metrics != nullptr && metrics->is_array()) {
    for (const JsonValue& m : metrics->items) {
      MetricSample sample;
      sample.name = string_member(m, "name");
      sample.kind = parse_metric_kind(string_member(m, "kind"))
                        .value_or(MetricKind::kCorrectness);
      sample.direction = parse_direction(string_member(m, "direction"))
                             .value_or(Direction::kExact);
      sample.unit = string_member(m, "unit");
      sample.value = number_member(m, "value", 0.0);
      sample.text = string_member(m, "text");
      sample.epsilon = number_member(m, "epsilon", 0.0);
      sample.abs_floor = number_member(m, "abs_floor", 0.0);
      if (!sample.name.empty()) record.metrics.push_back(std::move(sample));
    }
  }
  *out = std::move(record);
  return true;
}

bool load_run_records(const std::string& path, std::vector<RunRecord>* out,
                      std::string* error) {
  std::string text;
  if (!read_file(path, &text, error)) return false;
  out->clear();
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string parse_error;
    std::optional<JsonValue> doc = parse_json(line, &parse_error);
    RunRecord record;
    std::string record_error;
    if (!doc.has_value() ||
        !parse_run_record(*doc, &record, &record_error)) {
      if (error != nullptr)
        *error = path + ":" + std::to_string(line_number) + ": " +
                 (doc.has_value() ? record_error : parse_error);
      return false;
    }
    out->push_back(std::move(record));
  }
  return true;
}

bool prune_run_archive(const std::string& path, std::size_t keep,
                       std::size_t* kept, std::size_t* dropped,
                       std::string* error) {
  if (keep == 0) {
    if (error != nullptr) *error = "keep must be >= 1";
    return false;
  }
  std::vector<RunRecord> records;
  if (!load_run_records(path, &records, error)) return false;

  // The archive is append-only, so a bench's newest records are its
  // last lines: count per bench from the back, then emit survivors in
  // their original order.
  std::vector<char> survives(records.size(), 0);
  std::map<std::string, std::size_t> newest_seen;
  for (std::size_t i = records.size(); i-- > 0;)
    if (++newest_seen[records[i].bench] <= keep) survives[i] = 1;

  std::string doc;
  std::size_t kept_count = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!survives[i]) continue;
    doc += run_record_json(records[i]);
    doc += '\n';
    ++kept_count;
  }

  // Crash-safe rewrite: tmp sibling then atomic rename, so a kill at
  // any instant leaves either the old or the new archive, never a torn
  // one.
  std::string tmp = path + ".tmp";
  if (!write_file_logged(tmp, doc, "[obs]")) {
    if (error != nullptr) *error = "cannot write " + tmp;
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename " + tmp + " over " + path;
    std::remove(tmp.c_str());
    return false;
  }
  if (kept != nullptr) *kept = kept_count;
  if (dropped != nullptr) *dropped = records.size() - kept_count;
  return true;
}

Baseline baseline_from_record(const RunRecord& record) {
  Baseline baseline;
  baseline.bench = record.bench;
  baseline.git_sha = record.git_sha;
  baseline.created_unix = record.created_unix;
  baseline.has_seed = record.has_seed;
  baseline.seed = record.seed;
  baseline.threads = record.threads;
  baseline.fault_plan = record.fault_plan;
  for (const auto& [name, hex] : record.digests)
    if (is_provenance_digest(name)) baseline.digests.emplace_back(name, hex);

  std::vector<double> wall, cpu, ips;
  for (const RepeatSample& r : record.repeats) {
    wall.push_back(r.wall_seconds);
    cpu.push_back(r.user_seconds + r.sys_seconds);
    if (record.items > 0.0 && r.wall_seconds > 0.0)
      ips.push_back(record.items / r.wall_seconds);
  }
  const int n = static_cast<int>(record.repeats.size());
  auto perf = [&](const char* name, const std::vector<double>& samples,
                  Direction direction, const char* unit, double abs_floor) {
    if (samples.empty()) return;
    BaselineMetric m;
    m.name = name;
    m.kind = MetricKind::kPerf;
    m.direction = direction;
    m.unit = unit;
    m.median = median_of(samples);
    m.mad = mad_of(samples, m.median);
    m.n = n;
    m.abs_floor = abs_floor;
    baseline.metrics.push_back(std::move(m));
  };
  perf("wall_seconds", wall, Direction::kLowerIsBetter, "s", 0.05);
  perf("cpu_seconds", cpu, Direction::kLowerIsBetter, "s", 0.05);
  perf("items_per_second", ips, Direction::kHigherIsBetter, "items/s", 0.0);

  for (const MetricSample& sample : record.metrics) {
    BaselineMetric m;
    m.name = sample.name;
    m.kind = sample.kind;
    m.direction = sample.direction;
    m.unit = sample.unit;
    m.median = sample.value;
    m.n = 1;
    m.epsilon = sample.epsilon;
    m.abs_floor = sample.abs_floor;
    m.text = sample.text;
    baseline.metrics.push_back(std::move(m));
  }
  // Output digests from the manifest (drift report, ledgers) are digest
  // metrics: behavioral fingerprints gated under matching provenance.
  for (const auto& [name, hex] : record.digests) {
    if (is_provenance_digest(name)) continue;
    BaselineMetric m;
    m.name = "digest." + name;
    m.kind = MetricKind::kDigest;
    m.direction = Direction::kExact;
    m.text = hex;
    m.n = 1;
    baseline.metrics.push_back(std::move(m));
  }
  return baseline;
}

std::string baseline_json(const Baseline& baseline) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kBaselineSchema);
  w.key("bench").value(baseline.bench);
  w.key("created_unix").value(baseline.created_unix);
  w.key("git_sha").value(baseline.git_sha);
  w.key("provenance");
  w.begin_object();
  if (baseline.has_seed) w.key("seed").value(hex_digest(baseline.seed));
  w.key("threads").value(baseline.threads);
  w.key("fault_plan").value(baseline.fault_plan);
  emit_digests(w, baseline.digests);
  w.end_object();
  w.key("metrics");
  w.begin_array();
  for (const BaselineMetric& m : baseline.metrics) {
    w.begin_object();
    w.key("name").value(m.name);
    w.key("kind").value(metric_kind_name(m.kind));
    w.key("direction").value(direction_name(m.direction));
    if (!m.unit.empty()) w.key("unit").value(m.unit);
    if (m.kind == MetricKind::kDigest) {
      w.key("text").value(m.text);
    } else {
      w.key("median").value(m.median);
      w.key("mad").value(m.mad);
      w.key("n").value(m.n);
      if (m.abs_floor > 0.0) w.key("abs_floor").value(m.abs_floor);
      if (m.epsilon > 0.0) w.key("epsilon").value(m.epsilon);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool write_baseline(const std::string& path, const Baseline& baseline) {
  return write_file_logged(path, baseline_json(baseline) + "\n", "[obs]");
}

bool parse_baseline(const JsonValue& doc, Baseline* out,
                    std::string* error) {
  if (!doc.is_object()) {
    if (error != nullptr) *error = "baseline is not a JSON object";
    return false;
  }
  if (string_member(doc, "schema") != kBaselineSchema) {
    if (error != nullptr)
      *error = "missing or unknown schema (want " +
               std::string(kBaselineSchema) + ")";
    return false;
  }
  Baseline baseline;
  baseline.bench = string_member(doc, "bench");
  if (baseline.bench.empty()) {
    if (error != nullptr) *error = "baseline has no bench name";
    return false;
  }
  baseline.git_sha = string_member(doc, "git_sha");
  const auto refuse = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!doc.read_int("created_unix", &baseline.created_unix, kOptional))
    return refuse("baseline created_unix is not an integer");
  if (const JsonValue* provenance = doc.find("provenance");
      provenance != nullptr && provenance->is_object()) {
    if (provenance->find("seed") != nullptr) {
      baseline.has_seed = true;
      if (!read_seed(*provenance->find("seed"), &baseline.seed))
        return refuse(
            "baseline seed is neither a hex string nor an exact integer");
    }
    if (!provenance->read_int("threads", &baseline.threads, kOptional))
      return refuse("baseline threads is not an integer");
    baseline.fault_plan = string_member(*provenance, "fault_plan");
    baseline.digests = parse_digests(*provenance);
  }
  if (const JsonValue* metrics = doc.find("metrics");
      metrics != nullptr && metrics->is_array()) {
    for (const JsonValue& m : metrics->items) {
      BaselineMetric metric;
      metric.name = string_member(m, "name");
      metric.kind = parse_metric_kind(string_member(m, "kind"))
                        .value_or(MetricKind::kPerf);
      metric.direction = parse_direction(string_member(m, "direction"))
                             .value_or(Direction::kLowerIsBetter);
      metric.unit = string_member(m, "unit");
      metric.median = number_member(m, "median", 0.0);
      metric.mad = number_member(m, "mad", 0.0);
      if (!m.read_int("n", &metric.n, kOptional))
        return refuse("baseline metric n is not an integer");
      metric.abs_floor = number_member(m, "abs_floor", 0.0);
      metric.epsilon = number_member(m, "epsilon", 0.0);
      metric.text = string_member(m, "text");
      if (!metric.name.empty()) baseline.metrics.push_back(std::move(metric));
    }
  }
  *out = std::move(baseline);
  return true;
}

bool load_baseline(const std::string& path, Baseline* out,
                   std::string* error) {
  std::string text;
  if (!read_file(path, &text, error)) return false;
  std::string parse_error;
  std::optional<JsonValue> doc = parse_json(text, &parse_error);
  if (!doc.has_value()) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return false;
  }
  std::string baseline_error;
  if (!parse_baseline(*doc, out, &baseline_error)) {
    if (error != nullptr) *error = path + ": " + baseline_error;
    return false;
  }
  return true;
}

}  // namespace edgestab::obs
