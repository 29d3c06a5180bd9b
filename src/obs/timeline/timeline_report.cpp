#include "obs/timeline/timeline_report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "obs/report.h"
#include "util/hashing.h"
#include "util/file.h"

namespace edgestab::obs {

namespace {

constexpr const char* kTimelineFormat = "edgestab-timeline-v1";

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

/// A JSON array of exactly `n` integers (n == 0: any length) into
/// `*out`, each through JsonValue::as_int.
bool parse_ints(const JsonValue* v, std::vector<long long>* out,
                std::size_t n = 0) {
  if (v == nullptr || !v->is_array() || (n > 0 && v->items.size() != n))
    return false;
  out->clear();
  for (const JsonValue& item : v->items) {
    const std::optional<long long> i = item.as_int();
    if (!i) return false;
    out->push_back(*i);
  }
  return true;
}

}  // namespace

void timeline_names_json(JsonWriter& w, const char* key,
                         const std::vector<std::string>& names) {
  w.key(key).begin_array();
  for (const std::string& n : names) w.value(n);
  w.end_array();
}

bool parse_timeline_names(const JsonValue* v,
                          std::vector<std::string>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  for (const JsonValue& s : v->items) {
    if (!s.is_string()) return false;
    out->push_back(s.string);
  }
  return true;
}

void timeline_epoch_json(JsonWriter& w, const TimelineEpoch& e) {
  w.begin_object();
  w.key("epoch").value(static_cast<std::int64_t>(e.index));
  w.key("slots").value(e.slots);
  w.key("outcomes").begin_array();
  for (long long c : e.outcomes) w.value(static_cast<std::int64_t>(c));
  w.end_array();
  w.key("latency_hist").begin_array();
  for (const std::map<int, long long>& hist : e.latency_hist) {
    w.begin_array();
    for (const auto& [bucket, count] : hist) {
      w.begin_array();
      w.value(bucket);
      w.value(static_cast<std::int64_t>(count));
      w.end_array();
    }
    w.end_array();
  }
  w.end_array();
  w.key("census").begin_array();
  for (long long c : e.census) w.value(static_cast<std::int64_t>(c));
  w.end_array();
  w.key("queues").begin_array();
  for (const TimelineEpoch::QueueLane& lane : e.queues) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(lane.min));
    w.value(static_cast<std::int64_t>(lane.max));
    w.value(static_cast<std::int64_t>(lane.sum));
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

bool parse_timeline_epoch(const JsonValue& v, TimelineEpoch* out) {
  if (!v.is_object()) return false;
  TimelineEpoch e;
  if (!v.read_int("epoch", &e.index)) return false;
  if (!v.read_int("slots", &e.slots)) return false;
  if (!parse_ints(v.find("outcomes"), &e.outcomes)) return false;
  const JsonValue* hists = v.find("latency_hist");
  if (hists == nullptr || !hists->is_array()) return false;
  std::vector<long long> pair;
  for (const JsonValue& cls : hists->items) {
    if (!cls.is_array()) return false;
    std::map<int, long long> hist;
    for (const JsonValue& p : cls.items) {
      if (!parse_ints(&p, &pair, 2) || pair[0] != static_cast<int>(pair[0]))
        return false;
      hist[static_cast<int>(pair[0])] = pair[1];
    }
    e.latency_hist.push_back(std::move(hist));
  }
  if (!parse_ints(v.find("census"), &e.census)) return false;
  const JsonValue* queues = v.find("queues");
  if (queues == nullptr || !queues->is_array()) return false;
  std::vector<long long> lane;
  for (const JsonValue& l : queues->items) {
    if (!parse_ints(&l, &lane, 3)) return false;
    e.queues.push_back({lane[0], lane[1], lane[2]});
  }
  *out = std::move(e);
  return true;
}

void timeline_transition_json(JsonWriter& w, const BreakerTransition& t) {
  w.begin_object();
  w.key("device").value(t.device);
  w.key("epoch").value(static_cast<std::int64_t>(t.epoch));
  w.key("slot").value(static_cast<std::int64_t>(t.slot));
  w.key("from").value(t.from);
  w.key("to").value(t.to);
  w.key("cause").value(t.cause);
  w.end_object();
}

bool parse_timeline_transition(const JsonValue& v, BreakerTransition* out) {
  if (!v.is_object()) return false;
  BreakerTransition t;
  if (!v.read_int("device", &t.device)) return false;
  if (!v.read_int("epoch", &t.epoch)) return false;
  if (!v.read_int("slot", &t.slot)) return false;
  if (!v.read_int("from", &t.from)) return false;
  if (!v.read_int("to", &t.to)) return false;
  const JsonValue* cause = v.find("cause");
  if (cause == nullptr || !cause->is_string()) return false;
  t.cause = cause->string;
  *out = std::move(t);
  return true;
}

void timeline_trace_json(JsonWriter& w, const ShotTrace& t) {
  w.begin_object();
  w.key("g").value(static_cast<std::int64_t>(t.g));
  w.key("slot").value(static_cast<std::int64_t>(t.slot));
  w.key("device").value(t.device);
  w.key("class").value(t.cls);
  w.key("outcome").value(t.outcome);
  w.key("queue_wait_us").value(static_cast<std::int64_t>(t.queue_wait_us));
  w.key("service_us").value(static_cast<std::int64_t>(t.service_us));
  w.key("backoff_us").value(static_cast<std::int64_t>(t.backoff_us));
  w.key("delivery_us").value(static_cast<std::int64_t>(t.delivery_us));
  w.key("attempts").begin_array();
  for (const TraceAttempt& a : t.attempts) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(a.backoff_us));
    w.value(static_cast<std::int64_t>(a.service_us));
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

bool parse_timeline_trace(const JsonValue& v, ShotTrace* out) {
  if (!v.is_object()) return false;
  ShotTrace t;
  if (!v.read_int("g", &t.g)) return false;
  if (!v.read_int("slot", &t.slot)) return false;
  if (!v.read_int("device", &t.device)) return false;
  if (!v.read_int("class", &t.cls)) return false;
  if (!v.read_int("outcome", &t.outcome)) return false;
  if (!v.read_int("queue_wait_us", &t.queue_wait_us)) return false;
  if (!v.read_int("service_us", &t.service_us)) return false;
  if (!v.read_int("backoff_us", &t.backoff_us)) return false;
  if (!v.read_int("delivery_us", &t.delivery_us)) return false;
  const JsonValue* attempts = v.find("attempts");
  if (attempts == nullptr || !attempts->is_array()) return false;
  std::vector<long long> pair;
  for (const JsonValue& a : attempts->items) {
    if (!parse_ints(&a, &pair, 2)) return false;
    TraceAttempt attempt;
    attempt.backoff_us = pair[0];
    attempt.service_us = pair[1];
    t.attempts.push_back(attempt);
  }
  *out = std::move(t);
  return true;
}

std::uint64_t timeline_digest(const TimelineDoc& doc) {
  Fingerprint fp;
  fp.add(std::string(kTimelineFormat));
  fp.add(doc.epoch_slots);
  fp.add(doc.trace_sample_ppm);
  fp.add(doc.slots_total);
  for (const std::vector<std::string>* names :
       {&doc.stages, &doc.classes, &doc.outcomes}) {
    fp.add(static_cast<long long>(names->size()));
    for (const std::string& n : *names) fp.add(n);
  }
  fp.add(static_cast<long long>(doc.epochs.size()));
  for (const TimelineEpoch& e : doc.epochs) {
    fp.add(e.index);
    fp.add(e.slots);
    for (long long c : e.outcomes) fp.add(c);
    for (const std::map<int, long long>& hist : e.latency_hist) {
      fp.add(static_cast<long long>(hist.size()));
      for (const auto& [bucket, count] : hist) {
        fp.add(bucket);
        fp.add(count);
      }
    }
    for (long long c : e.census) fp.add(c);
    // e.queues deliberately excluded: live queue depths are wall-clock
    // observational data (DESIGN.md §18).
  }
  fp.add(static_cast<long long>(doc.transitions.size()));
  for (const BreakerTransition& t : doc.transitions) {
    fp.add(t.device);
    fp.add(t.epoch);
    fp.add(t.slot);
    fp.add(t.from);
    fp.add(t.to);
    fp.add(t.cause);
  }
  fp.add(static_cast<long long>(doc.traces.size()));
  for (const ShotTrace& t : doc.traces) {
    fp.add(t.g);
    fp.add(t.slot);
    fp.add(t.device);
    fp.add(t.cls);
    fp.add(t.outcome);
    fp.add(t.queue_wait_us);
    fp.add(t.service_us);
    fp.add(t.backoff_us);
    fp.add(t.delivery_us);
    for (const TraceAttempt& a : t.attempts) {
      fp.add(a.backoff_us);
      fp.add(a.service_us);
    }
  }
  fp.add(doc.traces_dropped);
  return fp.value();
}

std::string timeline_json(const TimelineDoc& doc) {
  JsonWriter w;
  w.begin_object();
  w.key("format").value(kTimelineFormat);
  w.key("bench").value(doc.bench);
  w.key("epoch_slots").value(doc.epoch_slots);
  w.key("trace_sample_ppm")
      .value(static_cast<std::int64_t>(doc.trace_sample_ppm));
  w.key("slots_total").value(static_cast<std::int64_t>(doc.slots_total));
  timeline_names_json(w, "stages", doc.stages);
  timeline_names_json(w, "classes", doc.classes);
  timeline_names_json(w, "outcomes", doc.outcomes);
  w.key("census_states").begin_array();
  for (int s = 0; s < kTimelineCensusStates; ++s) {
    w.value(timeline_census_name(s));
  }
  w.end_array();
  w.key("epochs").begin_array();
  for (const TimelineEpoch& e : doc.epochs) timeline_epoch_json(w, e);
  w.end_array();
  w.key("transitions").begin_array();
  for (const BreakerTransition& t : doc.transitions) {
    timeline_transition_json(w, t);
  }
  w.end_array();
  w.key("traces").begin_array();
  for (const ShotTrace& t : doc.traces) timeline_trace_json(w, t);
  w.end_array();
  w.key("traces_dropped").value(static_cast<std::int64_t>(doc.traces_dropped));
  w.key("digest").value(hex_digest(timeline_digest(doc)));
  w.end_object();
  return w.take();
}

bool parse_timeline(const std::string& text, TimelineDoc* out,
                    std::string* error) {
  std::optional<JsonValue> v = parse_json(text, error);
  if (!v) return false;
  auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!v->is_object()) return fail("timeline document is not an object");
  const JsonValue* format = v->find("format");
  if (format == nullptr || format->string_or("") != kTimelineFormat) {
    return fail("not an edgestab-timeline-v1 document");
  }
  TimelineDoc doc;
  const JsonValue* bench = v->find("bench");
  if (bench == nullptr || !bench->is_string()) return fail("missing bench");
  doc.bench = bench->string;
  if (!v->read_int("epoch_slots", &doc.epoch_slots)) {
    return fail("missing epoch_slots");
  }
  if (!v->read_int("trace_sample_ppm", &doc.trace_sample_ppm)) {
    return fail("missing trace_sample_ppm");
  }
  if (!v->read_int("slots_total", &doc.slots_total)) {
    return fail("missing slots_total");
  }
  if (!parse_timeline_names(v->find("stages"), &doc.stages)) {
    return fail("missing stages");
  }
  if (!parse_timeline_names(v->find("classes"), &doc.classes)) {
    return fail("missing classes");
  }
  if (!parse_timeline_names(v->find("outcomes"), &doc.outcomes)) {
    return fail("missing outcomes");
  }
  if (!parse_timeline_list(v->find("epochs"), parse_timeline_epoch,
                           &doc.epochs)) {
    return fail("missing or malformed epochs");
  }
  if (!parse_timeline_list(v->find("transitions"), parse_timeline_transition,
                           &doc.transitions)) {
    return fail("missing or malformed transitions");
  }
  if (!parse_timeline_list(v->find("traces"), parse_timeline_trace,
                           &doc.traces)) {
    return fail("missing or malformed traces");
  }
  if (!v->read_int("traces_dropped", &doc.traces_dropped)) {
    return fail("missing traces_dropped");
  }
  *out = std::move(doc);
  return true;
}

namespace {

/// One SVG sparkline lane. Pure function of the series, so the bench's
/// HTML and the sentinel's offline re-render are byte-identical.
std::string sparkline(const std::vector<long long>& series, long long peak,
                      const char* css_class) {
  constexpr int kW = 600;
  constexpr int kH = 36;
  constexpr int kPad = 2;
  std::string svg;
  appendf(svg,
          "<svg class=\"lane\" width=\"%d\" height=\"%d\" "
          "viewBox=\"0 0 %d %d\">",
          kW, kH, kW, kH);
  if (!series.empty()) {
    const long long vmax = std::max<long long>(1, peak);
    const std::size_t n = series.size();
    std::string points;
    for (std::size_t i = 0; i < n; ++i) {
      const double x =
          n == 1 ? kW / 2.0
                 : kPad + static_cast<double>(i) * (kW - 2 * kPad) / (n - 1);
      const double y = kH - kPad -
                       static_cast<double>(series[i]) * (kH - 2 * kPad) / vmax;
      appendf(points, "%s%.2f,%.2f", i == 0 ? "" : " ", x, y);
    }
    if (n == 1) {
      appendf(svg, "<circle class=\"%s\" cx=\"%d\" cy=\"%s\" r=\"2\"/>",
              css_class, kW / 2,
              points.substr(points.find(',') + 1).c_str());
    } else {
      appendf(svg, "<polyline class=\"%s\" points=\"%s\"/>", css_class,
              points.c_str());
    }
  }
  svg += "</svg>";
  return svg;
}

void lane_row(std::string& html, const std::string& label,
              const std::vector<long long>& series, const char* css_class) {
  long long peak = 0;
  long long last = 0;
  for (long long v : series) peak = std::max(peak, v);
  if (!series.empty()) last = series.back();
  html += "<tr><td class=\"label\">" + html_escape(label) + "</td><td>";
  html += sparkline(series, peak, css_class);
  appendf(html, "</td><td class=\"num\">%lld</td><td class=\"num\">%lld</td></tr>\n",
          peak, last);
}

}  // namespace

std::string timeline_html(const TimelineDoc& doc) {
  std::string html;
  html +=
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>" +
      html_escape(doc.bench) +
      " — service timeline</title>\n<style>\n"
      "body{font-family:system-ui,sans-serif;margin:24px;background:#111;"
      "color:#ddd;}\n"
      "h1{font-size:20px;} h2{font-size:16px;margin-top:28px;}\n"
      "table{border-collapse:collapse;}\n"
      "td,th{padding:3px 10px;font-size:13px;text-align:left;}\n"
      "td.num,th.num{text-align:right;font-variant-numeric:tabular-nums;}\n"
      "td.label{color:#9bd;white-space:nowrap;}\n"
      "svg.lane{background:#181818;border:1px solid #333;}\n"
      "polyline,circle{fill:none;stroke-width:1.5;}\n"
      "circle{fill:currentColor;}\n"
      ".outcome{stroke:#6c6;color:#6c6;} .queue{stroke:#fa0;color:#fa0;}\n"
      ".census{stroke:#e66;color:#e66;} .marker{fill:#e66;stroke:none;}\n"
      ".summary{color:#888;font-size:13px;}\n"
      "</style></head><body>\n";
  html += "<h1>" + html_escape(doc.bench) + " — service timeline</h1>\n";
  appendf(html,
          "<p class=\"summary\">%zu epochs × %d slots (%lld slots total) · "
          "trace sample %lld ppm · %zu traces kept",
          doc.epochs.size(), doc.epoch_slots, doc.slots_total,
          doc.trace_sample_ppm, doc.traces.size());
  if (doc.traces_dropped > 0) {
    appendf(html, " (%lld dropped past cap)", doc.traces_dropped);
  }
  html += " · epoch axis is aggregator fold order, never wall clock</p>\n";

  // Outcome lanes: per-epoch deltas per outcome.
  html +=
      "<h2>Outcomes per epoch</h2>\n<table>\n"
      "<tr><th>series</th><th>lane</th><th class=\"num\">peak</th>"
      "<th class=\"num\">last</th></tr>\n";
  for (std::size_t o = 0; o < doc.outcomes.size(); ++o) {
    std::vector<long long> series;
    series.reserve(doc.epochs.size());
    for (const TimelineEpoch& e : doc.epochs) {
      series.push_back(o < e.outcomes.size() ? e.outcomes[o] : 0);
    }
    lane_row(html, doc.outcomes[o], series, "outcome");
  }
  html += "</table>\n";

  // Queue-depth lanes (observational): per-stage epoch mean, peak = max.
  html +=
      "<h2>Queue depth per stage (observational, epoch mean)</h2>\n<table>\n"
      "<tr><th>stage</th><th>lane</th><th class=\"num\">peak</th>"
      "<th class=\"num\">last</th></tr>\n";
  for (std::size_t s = 0; s < doc.stages.size(); ++s) {
    std::vector<long long> series;
    long long peak = 0;
    series.reserve(doc.epochs.size());
    for (const TimelineEpoch& e : doc.epochs) {
      long long mean = 0;
      if (s < e.queues.size() && e.slots > 0) {
        mean = e.queues[s].sum / e.slots;
        peak = std::max(peak, e.queues[s].max);
      }
      series.push_back(mean);
    }
    html += "<tr><td class=\"label\">" + html_escape(doc.stages[s]) +
            "</td><td>";
    long long lane_peak = 0;
    for (long long v : series) lane_peak = std::max(lane_peak, v);
    html += sparkline(series, lane_peak, "queue");
    appendf(html,
            "</td><td class=\"num\">%lld</td><td class=\"num\">%lld</td></tr>\n",
            peak, series.empty() ? 0 : series.back());
  }
  html += "</table>\n";

  // Breaker census lanes + transition markers.
  html +=
      "<h2>Breaker census at epoch close</h2>\n<table>\n"
      "<tr><th>state</th><th>lane</th><th class=\"num\">peak</th>"
      "<th class=\"num\">last</th></tr>\n";
  for (int s = 0; s < kTimelineCensusStates; ++s) {
    std::vector<long long> series;
    series.reserve(doc.epochs.size());
    for (const TimelineEpoch& e : doc.epochs) {
      series.push_back(s < static_cast<int>(e.census.size()) ? e.census[s]
                                                             : 0);
    }
    lane_row(html, timeline_census_name(s), series, "census");
  }
  html += "</table>\n";

  appendf(html, "<h2>Breaker transitions (%zu)</h2>\n",
          doc.transitions.size());
  if (!doc.transitions.empty()) {
    // Marker strip: one dot per transition, x by folded slot.
    const long long span = std::max<long long>(1, doc.slots_total);
    std::string strip =
        "<svg class=\"lane\" width=\"600\" height=\"24\" "
        "viewBox=\"0 0 600 24\">";
    for (const BreakerTransition& t : doc.transitions) {
      const double x = 2 + static_cast<double>(t.slot) * 596 / span;
      appendf(strip, "<circle class=\"marker\" cx=\"%.2f\" cy=\"12\" r=\"3\">",
              x);
      std::string tip;
      appendf(tip, "slot %lld device %d: %s → %s (", t.slot, t.device,
              timeline_census_name(t.from), timeline_census_name(t.to));
      tip += t.cause + ")";
      strip += "<title>" + html_escape(tip) + "</title></circle>";
    }
    strip += "</svg>";
    html += "<p>" + strip + "</p>\n";
    html +=
        "<table>\n<tr><th class=\"num\">slot</th><th class=\"num\">epoch</th>"
        "<th class=\"num\">device</th><th>from</th><th>to</th>"
        "<th>cause</th></tr>\n";
    for (const BreakerTransition& t : doc.transitions) {
      appendf(html,
              "<tr><td class=\"num\">%lld</td><td class=\"num\">%lld</td>"
              "<td class=\"num\">%d</td><td>%s</td><td>%s</td><td>",
              t.slot, t.epoch, t.device, timeline_census_name(t.from),
              timeline_census_name(t.to));
      html += html_escape(t.cause) + "</td></tr>\n";
    }
    html += "</table>\n";
  } else {
    html += "<p class=\"summary\">no transitions recorded</p>\n";
  }

  appendf(html, "<h2>Sampled shot traces (%zu)</h2>\n", doc.traces.size());
  if (!doc.traces.empty()) {
    html +=
        "<table>\n<tr><th class=\"num\">shot</th><th class=\"num\">slot</th>"
        "<th class=\"num\">device</th><th>class</th><th>outcome</th>"
        "<th class=\"num\">queue wait µs</th><th class=\"num\">service µs</th>"
        "<th class=\"num\">backoff µs</th><th class=\"num\">delivery µs</th>"
        "<th class=\"num\">attempts</th></tr>\n";
    for (const ShotTrace& t : doc.traces) {
      const std::string cls =
          t.cls >= 0 && t.cls < static_cast<int>(doc.classes.size())
              ? doc.classes[t.cls]
              : std::to_string(t.cls);
      const std::string outcome =
          t.outcome >= 0 && t.outcome < static_cast<int>(doc.outcomes.size())
              ? doc.outcomes[t.outcome]
              : std::to_string(t.outcome);
      appendf(html, "<tr><td class=\"num\">%lld</td><td class=\"num\">%lld</td>"
                    "<td class=\"num\">%d</td><td>",
              t.g, t.slot, t.device);
      html += html_escape(cls) + "</td><td>" + html_escape(outcome) + "</td>";
      appendf(html,
              "<td class=\"num\">%lld</td><td class=\"num\">%lld</td>"
              "<td class=\"num\">%lld</td><td class=\"num\">%lld</td>"
              "<td class=\"num\">%zu</td></tr>\n",
              t.queue_wait_us, t.service_us, t.backoff_us, t.delivery_us,
              t.attempts.size());
    }
    html += "</table>\n";
  } else {
    html += "<p class=\"summary\">no traces sampled</p>\n";
  }

  html += "</body></html>\n";
  return html;
}

std::uint64_t write_timeline_report(const TimelineDoc& doc,
                                    const std::string& dir,
                                    RunManifest* manifest) {
  const std::uint64_t digest = timeline_digest(doc);
  const std::string json_file = doc.bench + ".timeline.json";
  const std::string html_file = doc.bench + ".timeline.html";
  bool ok = write_file_logged(dir + "/" + json_file, timeline_json(doc),
                              "[timeline]");
  ok = write_file_logged(dir + "/" + html_file, timeline_html(doc),
                         "[timeline]") &&
       ok;
  if (ok) {
    std::printf("[timeline] %s/%s + %s (%zu epochs, %zu transitions, "
                "%zu traces)\n",
                dir.c_str(), json_file.c_str(), html_file.c_str(),
                doc.epochs.size(), doc.transitions.size(), doc.traces.size());
  }
  if (manifest != nullptr) {
    manifest->add_digest("timeline", digest);
    if (ok) {
      manifest->add_artifact(json_file);
      manifest->add_artifact(html_file);
    }
  }
  return digest;
}

}  // namespace edgestab::obs
