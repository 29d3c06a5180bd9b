// Exporters for the service timeline (DESIGN.md §18): the canonical
// edgestab-timeline-v1 JSON document, its FNV digest over the
// deterministic surface, a self-contained SVG sparkline dashboard, and
// the full-fidelity parser the sentinel uses to re-render both offline.
//
// timeline_html is a pure function of the parsed document — the HTML
// the bench writes and the HTML `edgestab_sentinel timeline` re-renders
// from the JSON are byte-identical, which the timeline gate asserts.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "obs/timeline/timeline.h"

namespace edgestab::obs {

class RunManifest;

/// Canonical edgestab-timeline-v1 document. Deterministic: epochs are
/// emitted in ascending index order, transitions and traces in fold
/// order, and every number is an integer (counts, microseconds, ppm),
/// so the bytes are identical across thread counts and kill/resume.
std::string timeline_json(const TimelineDoc& doc);

/// Full-fidelity parse of timeline_json output (including the
/// observational queue lanes). Returns false and fills `error` on
/// malformed or wrong-format input.
bool parse_timeline(const std::string& text, TimelineDoc* out,
                    std::string* error);

/// FNV-1a fingerprint over the deterministic surface of the document:
/// config (epoch length, sample rate, name tables), per-epoch outcome
/// deltas / latency histograms / census, the transition stream and the
/// sampled traces. The observational queue-depth lanes, the bench name
/// and slot/wall bookkeeping that merely mirrors them are excluded —
/// this digest is the cross-thread / cross-resume equality contract.
std::uint64_t timeline_digest(const TimelineDoc& doc);

/// Self-contained HTML dashboard: SVG sparkline lanes for outcome
/// deltas, per-stage queue depth and breaker census, transition markers
/// with cause tooltips, and the sampled-trace table. All labels pass
/// through obs::html_escape; no scripts.
std::string timeline_html(const TimelineDoc& doc);

/// Write <dir>/<doc.bench>.timeline.json and .timeline.html, register
/// both as artifacts and add the "timeline" digest to `manifest` (when
/// non-null). Returns the digest it registered.
std::uint64_t write_timeline_report(const TimelineDoc& doc,
                                    const std::string& dir,
                                    RunManifest* manifest);

// Shared element codecs — used by timeline_json and by the recorder's
// checkpoint state serialization (edgestab-timeline-state-v1), so the
// two documents cannot drift apart.
void timeline_names_json(JsonWriter& w, const char* key,
                         const std::vector<std::string>& names);
bool parse_timeline_names(const JsonValue* v, std::vector<std::string>* out);
void timeline_epoch_json(JsonWriter& w, const TimelineEpoch& e);
bool parse_timeline_epoch(const JsonValue& v, TimelineEpoch* out);
void timeline_transition_json(JsonWriter& w, const BreakerTransition& t);
bool parse_timeline_transition(const JsonValue& v, BreakerTransition* out);
void timeline_trace_json(JsonWriter& w, const ShotTrace& t);
bool parse_timeline_trace(const JsonValue& v, ShotTrace* out);

/// Every element of the JSON array `v` through `parse` into `*out`;
/// false when `v` is not an array or any element fails.
template <typename T>
bool parse_timeline_list(const JsonValue* v,
                         bool (*parse)(const JsonValue&, T*),
                         std::vector<T>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->assign(v->items.size(), T{});
  for (std::size_t i = 0; i < out->size(); ++i)
    if (!parse(v->items[i], &(*out)[i])) return false;
  return true;
}

}  // namespace edgestab::obs
