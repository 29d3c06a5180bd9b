// Drift report exporters + the shared end-of-run artifact export.
//
// `drift_json` / `drift_html` render the DriftAuditor's accumulated
// state — drift-by-stage tables, logit-drift distributions (p50/p95/p99
// from the auditor's own per-slot histograms), and the prediction-flip
// ledger — as `bench_out/<name>.drift.json` and a self-contained HTML
// fleet report a browser can open directly.
//
// `export_run_artifacts` is bench::Run's finish() body hoisted into the
// obs library so its failure paths (unwritable out-dir, short writes)
// are unit-testable without linking a bench: it freezes the metrics
// registry, writes the stage-timing CSV, the profile, drift, fleet and
// timeline reports (each when armed) and the provenance manifest —
// folding their digests into the manifest first — and returns false if
// any artifact failed to land.
#pragma once

#include <string>

#include "obs/drift.h"
#include "obs/manifest.h"

namespace edgestab::obs {

/// Escape `&`, `<`, `>`, `"` for HTML text and attribute contexts. The
/// one escaping helper every HTML exporter (drift, profile, fleet)
/// must route user-influenced strings — device names, metric labels,
/// rule names — through.
std::string html_escape(const std::string& s);

/// JSON document (schema "edgestab-drift-report-v1") of the auditor's
/// full state.
std::string drift_json(const DriftAuditor& auditor,
                       const std::string& bench_name);

/// Self-contained HTML fleet report (inline CSS, no external assets).
std::string drift_html(const DriftAuditor& auditor,
                       const std::string& bench_name);

/// Write both report flavors into `dir`, register them (and the drift /
/// flip-ledger digests) on `manifest` when given. False on I/O failure.
bool write_drift_report(const DriftAuditor& auditor,
                        const std::string& bench_name, const std::string& dir,
                        RunManifest* manifest);

/// End-of-run export shared by every bench (see file comment). `dir`
/// must already exist; the manifest lands at `dir/<bench_name>.meta.json`.
bool export_run_artifacts(const std::string& bench_name,
                          const std::string& dir, RunManifest& manifest);

}  // namespace edgestab::obs
