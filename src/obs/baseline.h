// Cross-run archive + perf/correctness baselines.
//
// PR 1-4 made each bench run richly observable (manifest, trace, drift
// report, fault ledger) but nothing looked *across* runs. This layer is
// the longitudinal half: every bench::Run appends one compact RunRecord
// line to `bench_out/runs.jsonl` (the run archive) and rewrites
// `bench_out/BENCH_<name>.json` (the candidate baseline, schema
// `edgestab-baseline-v1`) summarizing the run's repeated timings as
// median + MAD. The comparison engine (obs/compare.h) diffs a record
// against a committed baseline; `tools/edgestab_sentinel` is the CLI.
//
// Metric taxonomy — the tolerance policy keys off it (see compare.h):
//   perf        noisy by nature; compared with relative + MAD-scaled
//               bands (per-device latency is too noisy for naive
//               single-number comparisons)
//   correctness deterministic at any thread count in this codebase;
//               compared exactly or within a declared epsilon
//   digest      output fingerprints (drift report, fault ledger, decode
//               MD5 streams); hard equality, but only when provenance
//               (seed / config digests / fault plan) matches
//
// Provenance digests (lab_rig, workspace, isp_*, fault_plan) are NOT
// metrics: when they differ the runs are different experiments and every
// comparison is `incomparable-provenance` — environment drift must not
// masquerade as a perf win or loss.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace edgestab::obs {

enum class MetricKind { kPerf, kCorrectness, kDigest };
enum class Direction { kLowerIsBetter, kHigherIsBetter, kExact };

const char* metric_kind_name(MetricKind kind);
const char* direction_name(Direction direction);
std::optional<MetricKind> parse_metric_kind(const std::string& name);
std::optional<Direction> parse_direction(const std::string& name);

/// One scalar (or digest) result a bench wants guarded across runs.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCorrectness;
  Direction direction = Direction::kExact;
  std::string unit;
  double value = 0.0;   ///< numeric kinds
  std::string text;     ///< digest kind: hex fingerprint
  double epsilon = 0.0; ///< correctness tolerance (0 = exact)
  /// Perf kind: absolute band floor (unit-scaled) carried into the
  /// derived BaselineMetric — for metrics whose medians can be tiny
  /// (e.g. per-stage exclusive ms), where a purely relative band would
  /// flag noise.
  double abs_floor = 0.0;
};

/// Timing of one bench repeat (wall clock + getrusage deltas).
struct RepeatSample {
  double wall_seconds = 0.0;
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
};

/// Everything one bench execution contributes to the run archive.
struct RunRecord {
  std::string bench;
  std::string git_sha;
  std::int64_t created_unix = 0;
  bool has_seed = false;
  std::uint64_t seed = 0;
  int threads = 1;
  std::string fault_plan;  ///< "" = clean run
  std::vector<std::pair<std::string, std::string>> digests;  ///< name → hex
  std::vector<RepeatSample> repeats;
  double items = 0.0;      ///< headline work units (0 = unknown)
  long max_rss_kb = 0;
  /// Per-stage wall time totals (ms) from the span histograms; archived
  /// for the trend report, not gated (too many, too noisy individually).
  std::vector<std::pair<std::string, double>> stage_wall_ms;
  std::vector<MetricSample> metrics;  ///< bench-declared headline metrics
};

/// Baseline entry: one metric's repeat-aware summary.
struct BaselineMetric {
  std::string name;
  MetricKind kind = MetricKind::kPerf;
  Direction direction = Direction::kLowerIsBetter;
  std::string unit;
  double median = 0.0;
  double mad = 0.0;        ///< median absolute deviation over the repeats
  int n = 0;               ///< repeats the summary was taken over
  double abs_floor = 0.0;  ///< absolute tolerance floor (unit-scaled)
  double epsilon = 0.0;    ///< correctness tolerance
  std::string text;        ///< digest kind
};

/// One bench's committed comparison target (schema edgestab-baseline-v1).
struct Baseline {
  std::string bench;
  std::string git_sha;
  std::int64_t created_unix = 0;
  bool has_seed = false;
  std::uint64_t seed = 0;
  int threads = 1;
  std::string fault_plan;
  /// Provenance digests only (is_provenance_digest).
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<BaselineMetric> metrics;
};

/// Median of a sample (0 for empty); linear interpolation between the
/// two middle elements for even sizes.
double median_of(std::vector<double> values);

/// Median absolute deviation around `median` (0 for empty).
double mad_of(const std::vector<double>& values, double median);

/// Config-input digests that define *which experiment ran* (vs output
/// digests that fingerprint what it produced): lab_rig, workspace,
/// fault_plan and isp_* belong to provenance.
bool is_provenance_digest(const std::string& name);

/// Per-stage wall totals (ms) from the global MetricsRegistry's span
/// histograms, sorted by name; stages that never fired are left out.
std::vector<std::pair<std::string, double>> stage_wall_ms_from_registry();

/// One-line JSON rendering (no trailing newline) of a run record.
std::string run_record_json(const RunRecord& record);

/// Append `record` as one line to the jsonl archive at `path` (created
/// on demand). False + stderr report on I/O failure.
bool append_run_record(const std::string& path, const RunRecord& record);

/// Parse one archive line / a whole archive. Loading tolerates blank
/// lines; a malformed line fails the load with a line-numbered error.
/// A missing archive file is an error; an existing-but-empty one loads
/// zero records successfully.
bool parse_run_record(const JsonValue& doc, RunRecord* out,
                      std::string* error);
bool load_run_records(const std::string& path, std::vector<RunRecord>* out,
                      std::string* error);

/// Rewrite the archive keeping only the newest `keep` records per bench
/// (bench names are already tier-decorated, so this is per (bench, tier)).
/// Survivors keep their original order. The rewrite is crash-safe:
/// sibling tmp file then atomic rename. On success *kept / *dropped (when
/// non-null) report the split; on failure the archive is untouched.
bool prune_run_archive(const std::string& path, std::size_t keep,
                       std::size_t* kept, std::size_t* dropped,
                       std::string* error);

/// Derive the candidate baseline from one record: perf summaries
/// (wall/cpu seconds, items/sec) get median + MAD over the repeats;
/// correctness and digest metrics carry over verbatim.
Baseline baseline_from_record(const RunRecord& record);

std::string baseline_json(const Baseline& baseline);
bool write_baseline(const std::string& path, const Baseline& baseline);
bool parse_baseline(const JsonValue& doc, Baseline* out, std::string* error);
bool load_baseline(const std::string& path, Baseline* out,
                   std::string* error);

}  // namespace edgestab::obs
