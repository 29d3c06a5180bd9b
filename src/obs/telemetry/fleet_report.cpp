#include "obs/telemetry/fleet_report.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/report.h"
#include "util/hashing.h"
#include "util/file.h"

namespace edgestab::obs {

namespace {

std::string fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

const char* transition_level(HealthStatus to) {
  switch (to) {
    case HealthStatus::kQuarantined: return "critical";
    case HealthStatus::kDegraded: return "warning";
    case HealthStatus::kHealthy: return "info";
  }
  return "info";
}

void emit_window(JsonWriter& w, const DeviceWindowStats& s) {
  w.begin_object();
  w.key("window").value(s.window);
  w.key("item_lo").value(s.item_lo);
  w.key("item_hi").value(s.item_hi);
  w.key("observations").value(static_cast<std::int64_t>(s.observations));
  w.key("flipped_items").value(static_cast<std::int64_t>(s.flipped_items));
  w.key("incorrect_items").value(static_cast<std::int64_t>(s.incorrect_items));
  w.key("flip_rate").value(s.flip_rate);
  w.key("shots").value(static_cast<std::int64_t>(s.shots));
  w.key("shots_lost").value(static_cast<std::int64_t>(s.shots_lost));
  w.key("retries").value(static_cast<std::int64_t>(s.retries));
  w.key("fault_events").value(static_cast<std::int64_t>(s.fault_events));
  w.key("loss_rate").value(s.loss_rate);
  w.key("retry_rate").value(s.retry_rate);
  w.key("latency_p50_ms").value(s.latency_p50_ms);
  w.key("latency_p99_ms").value(s.latency_p99_ms);
  w.key("latency_max_ms").value(s.latency_max_ms);
  w.key("drift_comparisons")
      .value(static_cast<std::int64_t>(s.drift_comparisons));
  w.key("drift_psnr_db_mean").value(s.drift_psnr_db_mean);
  w.key("drift_psnr_db_min").value(s.drift_psnr_db_min);
  w.key("quarantined").value(s.quarantined);
  w.key("quarantine_item").value(s.quarantine_item);
  w.end_object();
}

void emit_alert_fields(JsonWriter& w, const Alert& a) {
  w.key("rule").value(a.rule);
  w.key("metric").value(a.metric);
  w.key("severity").value(alert_severity_name(a.severity));
  w.key("device").value(a.device);
  w.key("device_label").value(a.device_label);
  w.key("window").value(a.window);
  w.key("item_lo").value(a.item_lo);
  w.key("item_hi").value(a.item_hi);
  w.key("item").value(a.item);
  w.key("value").value(a.value);
  w.key("threshold").value(a.threshold);
  w.key("baseline").value(a.baseline);
  w.key("numerator").value(static_cast<std::int64_t>(a.numerator));
  w.key("denominator").value(static_cast<std::int64_t>(a.denominator));
  w.key("detail").value(a.detail);
}

// Tiny inline-SVG bar sparkline over a window series; `bad` colors a
// bar red. Values are clamped to [0, 1] of `scale`.
std::string sparkline(const std::vector<double>& values,
                      const std::vector<bool>& bad, double scale,
                      const std::vector<std::string>& titles) {
  const int bar_w = 7, gap = 2, h = 22;
  const int width =
      static_cast<int>(values.size()) * (bar_w + gap) + gap;
  std::string svg = "<svg class=spark width=\"" + std::to_string(width) +
                    "\" height=\"" + std::to_string(h + 2) + "\">";
  for (std::size_t i = 0; i < values.size(); ++i) {
    double v = scale > 0.0 ? values[i] / scale : 0.0;
    v = std::clamp(v, 0.0, 1.0);
    const int bh = std::max(1, static_cast<int>(v * h + 0.5));
    const int x = gap + static_cast<int>(i) * (bar_w + gap);
    svg += "<rect x=\"" + std::to_string(x) + "\" y=\"" +
           std::to_string(1 + h - bh) + "\" width=\"" + std::to_string(bar_w) +
           "\" height=\"" + std::to_string(bh) + "\" fill=\"" +
           (i < bad.size() && bad[i] ? "#c0392b" : "#4a76a8") + "\">";
    if (i < titles.size()) {
      svg += "<title>" + html_escape(titles[i]) + "</title>";
    }
    svg += "</rect>";
  }
  svg += "</svg>";
  return svg;
}

const char* status_css(HealthStatus s) {
  switch (s) {
    case HealthStatus::kHealthy: return "ok";
    case HealthStatus::kDegraded: return "warn";
    case HealthStatus::kQuarantined: return "crit";
  }
  return "ok";
}

bool parse_health_status(const std::string& name, HealthStatus* out) {
  if (name == "healthy") *out = HealthStatus::kHealthy;
  else if (name == "degraded") *out = HealthStatus::kDegraded;
  else if (name == "quarantined") *out = HealthStatus::kQuarantined;
  else return false;
  return true;
}

bool parse_severity(const std::string& name, AlertSeverity* out) {
  if (name == "warning") *out = AlertSeverity::kWarning;
  else if (name == "critical") *out = AlertSeverity::kCritical;
  else return false;
  return true;
}

constexpr bool kOptional = JsonValue::kOptional;

double num_or(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? v->number_or(fallback) : fallback;
}

std::string str_or(const JsonValue& obj, const char* key,
                   const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? v->string_or(fallback) : fallback;
}

bool bool_or(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_bool() ? v->boolean : fallback;
}

}  // namespace

std::string fleet_json(const FleetHealthReport& report,
                       const std::string& bench_name) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("edgestab-fleet-v1");
  w.key("bench").value(bench_name);
  w.key("window_items").value(report.fleet.window_items);
  w.key("alerts_total").value(static_cast<std::int64_t>(report.alerts_total));
  w.key("alerts_critical")
      .value(static_cast<std::int64_t>(report.alerts_critical));
  w.key("devices_degraded")
      .value(static_cast<std::int64_t>(report.devices_degraded));
  w.key("devices_quarantined")
      .value(static_cast<std::int64_t>(report.devices_quarantined));
  w.key("alert_digest").value(hex_digest(report.alerts.digest()));

  w.key("devices");
  w.begin_array();
  for (const DeviceHealth& d : report.fleet.devices) {
    w.begin_object();
    w.key("device").value(d.device);
    w.key("label").value(d.label);
    w.key("status").value(health_status_name(d.status));
    w.key("observations").value(static_cast<std::int64_t>(d.observations));
    w.key("flipped_items").value(static_cast<std::int64_t>(d.flipped_items));
    w.key("incorrect_items")
        .value(static_cast<std::int64_t>(d.incorrect_items));
    w.key("flip_rate").value(d.flip_rate);
    w.key("shots").value(static_cast<std::int64_t>(d.shots));
    w.key("shots_lost").value(static_cast<std::int64_t>(d.shots_lost));
    w.key("retries").value(static_cast<std::int64_t>(d.retries));
    w.key("fault_events").value(static_cast<std::int64_t>(d.fault_events));
    w.key("latency_p50_ms").value(d.latency_p50_ms);
    w.key("latency_p99_ms").value(d.latency_p99_ms);
    w.key("drift_comparisons")
        .value(static_cast<std::int64_t>(d.drift_comparisons));
    w.key("drift_psnr_db_mean").value(d.drift_psnr_db_mean);
    w.key("coverage_usable").value(static_cast<std::int64_t>(d.coverage_usable));
    w.key("coverage_slots").value(static_cast<std::int64_t>(d.coverage_slots));
    w.key("windows");
    w.begin_array();
    for (const DeviceWindowStats& s : d.windows) emit_window(w, s);
    w.end_array();
    w.key("transitions");
    w.begin_array();
    for (const StatusTransition& t : d.transitions) {
      w.begin_object();
      w.key("window").value(t.window);
      w.key("item_lo").value(t.item_lo);
      w.key("from").value(health_status_name(t.from));
      w.key("to").value(health_status_name(t.to));
      w.key("reason").value(t.reason);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("alerts");
  w.begin_array();
  for (const Alert& a : report.alerts.alerts()) {
    w.begin_object();
    emit_alert_fields(w, a);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.take();
}

std::string events_jsonl(const FleetHealthReport& report,
                         const std::string& bench_name) {
  std::string out;
  for (const Alert& a : report.alerts.alerts()) {
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("edgestab-events-v1");
    w.key("bench").value(bench_name);
    w.key("type").value("alert");
    w.key("level").value(alert_severity_name(a.severity));
    emit_alert_fields(w, a);
    w.end_object();
    out += w.take();
    out += '\n';
  }
  for (const DeviceHealth& d : report.fleet.devices) {
    for (const StatusTransition& t : d.transitions) {
      JsonWriter w;
      w.begin_object();
      w.key("schema").value("edgestab-events-v1");
      w.key("bench").value(bench_name);
      w.key("type").value("status");
      w.key("level").value(transition_level(t.to));
      w.key("device").value(d.device);
      w.key("device_label").value(d.label);
      w.key("window").value(t.window);
      w.key("item_lo").value(t.item_lo);
      w.key("from").value(health_status_name(t.from));
      w.key("to").value(health_status_name(t.to));
      w.key("reason").value(t.reason);
      w.end_object();
      out += w.take();
      out += '\n';
    }
  }
  return out;
}

std::string fleet_html(const FleetHealthReport& report,
                       const std::string& bench_name) {
  std::string html;
  html +=
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>fleet health: " +
      html_escape(bench_name) + "</title>\n<style>\n";
  html +=
      "body{font:14px/1.45 system-ui,sans-serif;margin:2em;color:#222}\n"
      "table{border-collapse:collapse;margin:0.7em 0}\n"
      "th,td{border:1px solid #bbb;padding:4px 10px;text-align:right}\n"
      "th{background:#f0f0f0}td.l,th.l{text-align:left}\n"
      "h2{margin-top:1.6em}.small{color:#666;font-size:12px}\n"
      ".badge{display:inline-block;padding:1px 8px;border-radius:9px;"
      "color:#fff;font-size:12px}\n"
      ".badge.ok{background:#2d7d46}.badge.warn{background:#c77f1a}"
      ".badge.crit{background:#c0392b}\n"
      ".spark{vertical-align:middle}\n";
  html += "</style></head><body>\n";
  html += "<h1>Fleet health &mdash; " + html_escape(bench_name) + "</h1>\n";
  html += "<p class=small>" +
          std::to_string(report.fleet.devices.size()) + " devices &middot; " +
          std::to_string(report.alerts_total) + " alerts (" +
          std::to_string(report.alerts_critical) + " critical) &middot; " +
          std::to_string(report.devices_degraded) + " degraded &middot; " +
          std::to_string(report.devices_quarantined) +
          " quarantined &middot; window = " +
          std::to_string(report.fleet.window_items) + " items</p>\n";

  // --- Per-device health rows --------------------------------------------
  html += "<h2>Devices</h2>\n<table id=\"devices\">\n";
  html +=
      "<tr><th class=l>device</th><th class=l>status</th><th>obs</th>"
      "<th>flips</th><th>flip rate</th><th class=l>flips/window</th>"
      "<th>shots</th><th>lost</th><th class=l>losses/window</th>"
      "<th>retries</th><th>p50 ms</th><th>p99 ms</th><th>drift dB</th>"
      "<th>coverage</th></tr>\n";
  for (const DeviceHealth& d : report.fleet.devices) {
    std::vector<double> flips, losses;
    std::vector<bool> bad;
    std::vector<std::string> flip_titles, loss_titles;
    for (const DeviceWindowStats& s : d.windows) {
      flips.push_back(s.flip_rate);
      losses.push_back(s.loss_rate);
      bad.push_back(s.quarantined);
      const std::string span = "items " + std::to_string(s.item_lo) + "-" +
                               std::to_string(s.item_hi - 1);
      flip_titles.push_back(span + ": " + std::to_string(s.flipped_items) +
                            "/" + std::to_string(s.observations) + " flipped");
      loss_titles.push_back(span + ": " + std::to_string(s.shots_lost) + "/" +
                            std::to_string(s.shots) + " lost");
    }
    html += "<tr><td class=l>" + html_escape(d.label) + "</td>";
    html += "<td class=l><span class=\"badge ";
    html += status_css(d.status);
    html += "\">";
    html += health_status_name(d.status);
    html += "</span></td>";
    html += "<td>" + std::to_string(d.observations) + "</td>";
    html += "<td>" + std::to_string(d.flipped_items) + "</td>";
    html += "<td>" + fmt(100.0 * d.flip_rate, 1) + "%</td>";
    html += "<td class=l>" + sparkline(flips, bad, 1.0, flip_titles) + "</td>";
    html += "<td>" + std::to_string(d.shots) + "</td>";
    html += "<td>" + std::to_string(d.shots_lost) + "</td>";
    html +=
        "<td class=l>" + sparkline(losses, bad, 1.0, loss_titles) + "</td>";
    html += "<td>" + std::to_string(d.retries) + "</td>";
    html += "<td>" + fmt(d.latency_p50_ms, 1) + "</td>";
    html += "<td>" + fmt(d.latency_p99_ms, 1) + "</td>";
    html += "<td>" +
            (d.drift_comparisons > 0 ? fmt(d.drift_psnr_db_mean, 1)
                                     : std::string("&mdash;")) +
            "</td>";
    html += "<td>" +
            (d.coverage_slots >= 0
                 ? std::to_string(d.coverage_usable) + "/" +
                       std::to_string(d.coverage_slots)
                 : std::string("&mdash;")) +
            "</td></tr>\n";
  }
  html += "</table>\n";

  // --- Status timeline ----------------------------------------------------
  bool any_transition = false;
  for (const DeviceHealth& d : report.fleet.devices) {
    any_transition = any_transition || !d.transitions.empty();
  }
  if (any_transition) {
    html += "<h2>Status timeline</h2>\n<table id=\"timeline\">\n";
    html +=
        "<tr><th class=l>device</th><th>window</th><th>from item</th>"
        "<th class=l>transition</th><th class=l>reason</th></tr>\n";
    for (const DeviceHealth& d : report.fleet.devices) {
      for (const StatusTransition& t : d.transitions) {
        html += "<tr><td class=l>" + html_escape(d.label) + "</td>";
        html += "<td>" + std::to_string(t.window) + "</td>";
        html += "<td>" + std::to_string(t.item_lo) + "</td>";
        html += "<td class=l>";
        html += health_status_name(t.from);
        html += " &rarr; <span class=\"badge ";
        html += status_css(t.to);
        html += "\">";
        html += health_status_name(t.to);
        html += "</span></td>";
        html += "<td class=l>" + html_escape(t.reason) + "</td></tr>\n";
      }
    }
    html += "</table>\n";
  }

  // --- Alert timeline -----------------------------------------------------
  html += "<h2>Alerts</h2>\n";
  if (report.alerts.empty()) {
    html += "<p class=small>No alerts fired.</p>\n";
  } else {
    html += "<table id=\"alerts\">\n";
    html +=
        "<tr><th class=l>severity</th><th class=l>rule</th>"
        "<th class=l>device</th><th>window</th><th>items</th>"
        "<th>value</th><th>threshold</th><th class=l>detail</th></tr>\n";
    for (const Alert& a : report.alerts.alerts()) {
      html += "<tr><td class=l><span class=\"badge ";
      html += a.severity == AlertSeverity::kCritical ? "crit" : "warn";
      html += "\">";
      html += alert_severity_name(a.severity);
      html += "</span></td>";
      html += "<td class=l>" + html_escape(a.rule) + "</td>";
      html += "<td class=l>" + html_escape(a.device_label) + "</td>";
      html += "<td>" + std::to_string(a.window) + "</td>";
      html += "<td>" + std::to_string(a.item_lo) + "-" +
              std::to_string(a.item_hi - 1) + "</td>";
      html += "<td>" + fmt(a.value, 3) + "</td>";
      html += "<td>" + fmt(a.threshold, 3) + "</td>";
      html += "<td class=l>" + html_escape(a.detail) + "</td></tr>\n";
    }
    html += "</table>\n";
  }

  html += "</body></html>\n";
  return html;
}

std::string fleet_text(const FleetHealthReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-28s %-11s %6s %6s %7s %6s %5s %6s %8s %8s %9s\n", "device",
                "status", "obs", "flips", "flip%", "shots", "lost", "retry",
                "p50 ms", "p99 ms", "coverage");
  out += line;
  for (const DeviceHealth& d : report.fleet.devices) {
    std::string coverage = d.coverage_slots >= 0
                               ? std::to_string(d.coverage_usable) + "/" +
                                     std::to_string(d.coverage_slots)
                               : std::string("-");
    std::snprintf(line, sizeof(line),
                  "%-28.28s %-11s %6lld %6lld %6.1f%% %6lld %5lld %6lld "
                  "%8.1f %8.1f %9s\n",
                  d.label.c_str(), health_status_name(d.status),
                  d.observations, d.flipped_items, 100.0 * d.flip_rate,
                  d.shots, d.shots_lost, d.retries, d.latency_p50_ms,
                  d.latency_p99_ms, coverage.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%lld alerts (%lld critical), %lld degraded, %lld "
                "quarantined of %zu devices\n",
                report.alerts_total, report.alerts_critical,
                report.devices_degraded, report.devices_quarantined,
                report.fleet.devices.size());
  out += line;
  for (const Alert& a : report.alerts.alerts()) {
    std::snprintf(line, sizeof(line), "  [%s] %s: %s w%d (items %d-%d): %s\n",
                  alert_severity_name(a.severity), a.rule.c_str(),
                  a.device_label.c_str(), a.window, a.item_lo, a.item_hi - 1,
                  a.detail.c_str());
    out += line;
  }
  return out;
}

bool write_fleet_report(const FleetHealthReport& report,
                        const std::string& bench_name, const std::string& dir,
                        RunManifest* manifest) {
  const std::string json = fleet_json(report, bench_name);
  const std::string events = events_jsonl(report, bench_name);
  const std::string json_file = bench_name + ".fleet.json";
  const std::string html_file = bench_name + ".fleet.html";
  const std::string events_file = bench_name + ".events.jsonl";
  bool ok = write_file_logged(dir + "/" + json_file, json, "[fleet]");
  ok = write_file_logged(dir + "/" + html_file,
                         fleet_html(report, bench_name), "[fleet]") &&
       ok;
  ok = write_file_logged(dir + "/" + events_file, events, "[fleet]") && ok;
  if (ok) {
    std::printf("[fleet] %s/%s + %s + %s (%lld alerts)\n", dir.c_str(),
                json_file.c_str(), html_file.c_str(), events_file.c_str(),
                report.alerts_total);
  }
  if (manifest != nullptr) {
    manifest->add_digest("alert_ledger", report.alerts.digest());
    manifest->add_digest("fleet_report", fnv1a64(json));
    manifest->add_digest("event_log", fnv1a64(events));
    manifest->set_field("telemetry_alerts_total",
                        static_cast<double>(report.alerts_total));
    manifest->set_field("telemetry_alerts_critical",
                        static_cast<double>(report.alerts_critical));
    manifest->set_field("telemetry_devices_degraded",
                        static_cast<double>(report.devices_degraded));
    manifest->set_field("telemetry_devices_quarantined",
                        static_cast<double>(report.devices_quarantined));
    if (ok) {
      manifest->add_artifact(json_file);
      manifest->add_artifact(html_file);
      manifest->add_artifact(events_file);
    }
  }
  return ok;
}

bool parse_fleet(const JsonValue& doc, FleetDoc* out, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!doc.is_object()) return fail("fleet document is not an object");
  if (str_or(doc, "schema", "") != "edgestab-fleet-v1") {
    return fail("not an edgestab-fleet-v1 document");
  }
  FleetDoc parsed;
  parsed.bench = str_or(doc, "bench", "");
  FleetHealthReport& report = parsed.report;
  if (!doc.read_int("window_items", &report.fleet.window_items, kOptional) ||
      !doc.read_ints<long long>(
          {{"alerts_total", &report.alerts_total},
           {"alerts_critical", &report.alerts_critical},
           {"devices_degraded", &report.devices_degraded},
           {"devices_quarantined", &report.devices_quarantined}},
          kOptional))
    return fail("fleet totals are not integers");

  const JsonValue* devices = doc.find("devices");
  if (devices == nullptr || !devices->is_array()) {
    return fail("fleet document has no devices array");
  }
  for (const JsonValue& dv : devices->items) {
    if (!dv.is_object()) return fail("device entry is not an object");
    DeviceHealth d;
    d.device = -1;
    if (!dv.read_int("device", &d.device, kOptional) ||
        !dv.read_ints<long long>({{"observations", &d.observations},
                                  {"flipped_items", &d.flipped_items},
                                  {"incorrect_items", &d.incorrect_items},
                                  {"shots", &d.shots},
                                  {"shots_lost", &d.shots_lost},
                                  {"retries", &d.retries},
                                  {"fault_events", &d.fault_events},
                                  {"drift_comparisons", &d.drift_comparisons},
                                  {"coverage_usable", &d.coverage_usable},
                                  {"coverage_slots", &d.coverage_slots}},
                                 kOptional))
      return fail("device counts are not integers");
    d.label = str_or(dv, "label", "");
    if (!parse_health_status(str_or(dv, "status", "healthy"), &d.status)) {
      return fail("device " + d.label + " has an unknown status");
    }
    d.flip_rate = num_or(dv, "flip_rate", 0.0);
    d.latency_p50_ms = num_or(dv, "latency_p50_ms", 0.0);
    d.latency_p99_ms = num_or(dv, "latency_p99_ms", 0.0);
    d.drift_psnr_db_mean = num_or(dv, "drift_psnr_db_mean", 0.0);
    if (const JsonValue* windows = dv.find("windows");
        windows != nullptr && windows->is_array()) {
      for (const JsonValue& wv : windows->items) {
        if (!wv.is_object()) return fail("window entry is not an object");
        DeviceWindowStats s;
        if (!wv.read_ints<int>({{"window", &s.window},
                                {"item_lo", &s.item_lo},
                                {"item_hi", &s.item_hi},
                                {"quarantine_item", &s.quarantine_item}},
                               kOptional) ||
            !wv.read_ints<long long>(
                {{"observations", &s.observations},
                 {"flipped_items", &s.flipped_items},
                 {"incorrect_items", &s.incorrect_items},
                 {"shots", &s.shots},
                 {"shots_lost", &s.shots_lost},
                 {"retries", &s.retries},
                 {"fault_events", &s.fault_events},
                 {"drift_comparisons", &s.drift_comparisons}},
                kOptional))
          return fail("window counts are not integers");
        s.flip_rate = num_or(wv, "flip_rate", 0.0);
        s.loss_rate = num_or(wv, "loss_rate", 0.0);
        s.retry_rate = num_or(wv, "retry_rate", 0.0);
        s.latency_p50_ms = num_or(wv, "latency_p50_ms", 0.0);
        s.latency_p99_ms = num_or(wv, "latency_p99_ms", 0.0);
        s.latency_max_ms = num_or(wv, "latency_max_ms", 0.0);
        s.drift_psnr_db_mean = num_or(wv, "drift_psnr_db_mean", 0.0);
        s.drift_psnr_db_min = num_or(wv, "drift_psnr_db_min", 0.0);
        s.quarantined = bool_or(wv, "quarantined", false);
        d.windows.push_back(std::move(s));
      }
    }
    if (const JsonValue* transitions = dv.find("transitions");
        transitions != nullptr && transitions->is_array()) {
      for (const JsonValue& tv : transitions->items) {
        if (!tv.is_object()) return fail("transition entry is not an object");
        StatusTransition t;
        if (!tv.read_ints<int>(
                {{"window", &t.window}, {"item_lo", &t.item_lo}}, kOptional))
          return fail("transition window is not an integer");
        if (!parse_health_status(str_or(tv, "from", "healthy"), &t.from) ||
            !parse_health_status(str_or(tv, "to", "healthy"), &t.to)) {
          return fail("transition has an unknown status");
        }
        t.reason = str_or(tv, "reason", "");
        d.transitions.push_back(std::move(t));
      }
    }
    report.fleet.devices.push_back(std::move(d));
  }

  if (const JsonValue* alerts = doc.find("alerts");
      alerts != nullptr && alerts->is_array()) {
    for (const JsonValue& av : alerts->items) {
      if (!av.is_object()) return fail("alert entry is not an object");
      Alert a;
      a.rule = str_or(av, "rule", "");
      a.metric = str_or(av, "metric", "");
      if (!parse_severity(str_or(av, "severity", "warning"), &a.severity)) {
        return fail("alert " + a.rule + " has an unknown severity");
      }
      if (!av.read_ints<int>({{"device", &a.device},
                              {"window", &a.window},
                              {"item_lo", &a.item_lo},
                              {"item_hi", &a.item_hi},
                              {"item", &a.item}},
                             kOptional) ||
          !av.read_ints<long long>({{"numerator", &a.numerator},
                                    {"denominator", &a.denominator}},
                                   kOptional))
        return fail("alert coordinates are not integers");
      a.device_label = str_or(av, "device_label", "");
      a.value = num_or(av, "value", 0.0);
      a.threshold = num_or(av, "threshold", 0.0);
      a.baseline = num_or(av, "baseline", 0.0);
      a.detail = str_or(av, "detail", "");
      report.alerts.record(std::move(a));
    }
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace edgestab::obs
