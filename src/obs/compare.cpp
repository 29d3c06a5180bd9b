#include "obs/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/report.h"

namespace edgestab::obs {

namespace {

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string num(double v) {
  if (!std::isfinite(v)) return std::isnan(v) ? "nan" : "inf";
  return fmt("%.6g", v);
}

const BaselineMetric* find_metric(const std::vector<BaselineMetric>& metrics,
                                  const std::string& name) {
  for (const BaselineMetric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

MetricVerdict judged(const BaselineMetric& base, Verdict verdict,
                     std::string reason) {
  MetricVerdict v;
  v.name = base.name;
  v.kind = base.kind;
  v.verdict = verdict;
  v.baseline = base.median;
  v.baseline_text = base.text;
  v.reason = std::move(reason);
  return v;
}

Verdict directional(Direction direction, double delta) {
  switch (direction) {
    case Direction::kLowerIsBetter:
      return delta < 0.0 ? Verdict::kImproved : Verdict::kRegressed;
    case Direction::kHigherIsBetter:
      return delta > 0.0 ? Verdict::kImproved : Verdict::kRegressed;
    case Direction::kExact:
      return Verdict::kRegressed;  // any drift from an exact target
  }
  return Verdict::kRegressed;
}

}  // namespace

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kImproved: return "improved";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kIncomparable: return "incomparable";
  }
  return "unknown";
}

int CompareReport::count(Verdict verdict) const {
  int n = 0;
  for (const MetricVerdict& v : verdicts)
    if (v.verdict == verdict) ++n;
  return n;
}

CompareReport compare_run(const RunRecord& record, const Baseline& baseline,
                          const CompareOptions& options) {
  CompareReport report;
  report.bench = record.bench;

  if (record.bench != baseline.bench) {
    report.provenance_comparable = false;
    report.provenance_notes.push_back(
        fmt("bench name differs: run '%s' vs baseline '%s'",
            record.bench.c_str(), baseline.bench.c_str()));
  }
  if (record.has_seed != baseline.has_seed ||
      (record.has_seed && record.seed != baseline.seed)) {
    report.provenance_comparable = false;
    report.provenance_notes.push_back(
        fmt("seed differs: run %s vs baseline %s",
            record.has_seed ? std::to_string(record.seed).c_str() : "(none)",
            baseline.has_seed ? std::to_string(baseline.seed).c_str()
                              : "(none)"));
  }
  if (record.fault_plan != baseline.fault_plan) {
    report.provenance_comparable = false;
    report.provenance_notes.push_back(
        fmt("fault plan differs: run '%s' vs baseline '%s'",
            record.fault_plan.c_str(), baseline.fault_plan.c_str()));
  }
  for (const auto& [name, hex] : baseline.digests) {
    const std::string* current = nullptr;
    for (const auto& [rname, rhex] : record.digests)
      if (rname == name) current = &rhex;
    if (current == nullptr) {
      report.provenance_comparable = false;
      report.provenance_notes.push_back(
          fmt("provenance digest '%s' missing from run", name.c_str()));
    } else if (*current != hex) {
      report.provenance_comparable = false;
      report.provenance_notes.push_back(
          fmt("provenance digest '%s' differs: %s vs %s", name.c_str(),
              current->c_str(), hex.c_str()));
    }
  }
  // Results are bit-deterministic at any thread count in this codebase
  // (PR 3's reduction guarantee), so a thread-count change only voids
  // the perf comparison, not correctness or digests.
  if (record.threads != baseline.threads) {
    report.perf_comparable = false;
    report.provenance_notes.push_back(
        fmt("thread count differs (run %d vs baseline %d): "
            "perf metrics incomparable",
            record.threads, baseline.threads));
  }

  // Collapse the record's repeats exactly the way baselines are built so
  // the comparison is median-to-median.
  Baseline current = baseline_from_record(record);

  for (const BaselineMetric& base : baseline.metrics) {
    const BaselineMetric* cur = find_metric(current.metrics, base.name);
    if (cur == nullptr) {
      report.verdicts.push_back(judged(base, Verdict::kIncomparable,
                                       "metric absent from current run"));
      continue;
    }
    if (!report.provenance_comparable) {
      MetricVerdict v = judged(base, Verdict::kIncomparable,
                               "provenance mismatch; different experiment");
      v.current = cur->median;
      v.current_text = cur->text;
      report.verdicts.push_back(std::move(v));
      continue;
    }

    MetricVerdict v;
    v.name = base.name;
    v.kind = base.kind;
    v.baseline = base.median;
    v.baseline_text = base.text;
    v.current = cur->median;
    v.current_text = cur->text;

    switch (base.kind) {
      case MetricKind::kDigest: {
        if (cur->text == base.text) {
          v.verdict = Verdict::kUnchanged;
          v.reason = "digest matches";
        } else {
          v.verdict = Verdict::kRegressed;
          v.reason = "digest differs under matching provenance";
        }
        break;
      }
      case MetricKind::kPerf: {
        if (!report.perf_comparable) {
          v.verdict = Verdict::kIncomparable;
          v.reason = "thread count differs";
          break;
        }
        if (!std::isfinite(cur->median) || !std::isfinite(base.median)) {
          v.verdict = Verdict::kIncomparable;
          v.reason = "non-finite value";
          break;
        }
        v.delta = cur->median - base.median;
        v.band = std::max({options.perf_rel_tol * std::fabs(base.median),
                           options.perf_mad_k * base.mad, base.abs_floor});
        if (std::fabs(v.delta) <= v.band) {
          v.verdict = Verdict::kUnchanged;
          v.reason = "within noise band";
        } else {
          v.verdict = directional(base.direction, v.delta);
          v.reason = fmt("outside band by %s", num(std::fabs(v.delta) -
                                                   v.band).c_str());
        }
        break;
      }
      case MetricKind::kCorrectness: {
        if (!std::isfinite(cur->median) || !std::isfinite(base.median)) {
          v.verdict = Verdict::kIncomparable;
          v.reason = "non-finite value";
          break;
        }
        v.delta = cur->median - base.median;
        v.band = std::max({base.epsilon, cur->epsilon,
                           options.default_epsilon});
        if (std::fabs(v.delta) <= v.band) {
          v.verdict = Verdict::kUnchanged;
          v.reason = "within epsilon";
        } else {
          v.verdict = directional(base.direction, v.delta);
          v.reason = "outside epsilon";
        }
        break;
      }
    }
    report.verdicts.push_back(std::move(v));
  }

  for (const BaselineMetric& cur : current.metrics) {
    if (find_metric(baseline.metrics, cur.name) != nullptr) continue;
    MetricVerdict v;
    v.name = cur.name;
    v.kind = cur.kind;
    v.verdict = Verdict::kIncomparable;
    v.current = cur.median;
    v.current_text = cur.text;
    v.reason = "metric absent from baseline";
    report.verdicts.push_back(std::move(v));
  }
  return report;
}

std::string compare_report_text(const CompareReport& report) {
  std::ostringstream out;
  out << "bench " << report.bench << "\n";
  for (const std::string& note : report.provenance_notes)
    out << "  note: " << note << "\n";
  out << fmt("  %-12s %-12s %-28s %12s %12s %12s  %s\n", "verdict", "kind",
             "metric", "current", "baseline", "band", "reason");
  for (const MetricVerdict& v : report.verdicts) {
    std::string current = v.kind == MetricKind::kDigest
                              ? v.current_text
                              : num(v.current);
    std::string baseline = v.kind == MetricKind::kDigest
                               ? v.baseline_text
                               : num(v.baseline);
    out << fmt("  %-12s %-12s %-28s %12s %12s %12s  %s\n",
               verdict_name(v.verdict), metric_kind_name(v.kind),
               v.name.c_str(), current.c_str(), baseline.c_str(),
               num(v.band).c_str(), v.reason.c_str());
  }
  out << fmt("  summary: %d improved, %d unchanged, %d regressed, "
             "%d incomparable\n",
             report.count(Verdict::kImproved),
             report.count(Verdict::kUnchanged),
             report.count(Verdict::kRegressed),
             report.count(Verdict::kIncomparable));
  return out.str();
}

std::string compare_report_json(const CompareReport& report) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("edgestab-compare-v1");
  w.key("bench").value(report.bench);
  w.key("provenance_comparable").value(report.provenance_comparable);
  w.key("perf_comparable").value(report.perf_comparable);
  w.key("provenance_notes");
  w.begin_array();
  for (const std::string& note : report.provenance_notes) w.value(note);
  w.end_array();
  w.key("verdicts");
  w.begin_array();
  for (const MetricVerdict& v : report.verdicts) {
    w.begin_object();
    w.key("name").value(v.name);
    w.key("kind").value(metric_kind_name(v.kind));
    w.key("verdict").value(verdict_name(v.verdict));
    if (v.kind == MetricKind::kDigest) {
      w.key("current").value(v.current_text);
      w.key("baseline").value(v.baseline_text);
    } else {
      w.key("current").value(v.current);
      w.key("baseline").value(v.baseline);
      w.key("delta").value(v.delta);
      w.key("band").value(v.band);
    }
    w.key("reason").value(v.reason);
    w.end_object();
  }
  w.end_array();
  w.key("counts");
  w.begin_object();
  w.key("improved").value(report.count(Verdict::kImproved));
  w.key("unchanged").value(report.count(Verdict::kUnchanged));
  w.key("regressed").value(report.count(Verdict::kRegressed));
  w.key("incomparable").value(report.count(Verdict::kIncomparable));
  w.end_object();
  w.end_object();
  return w.take();
}

namespace {

struct TrendPoint {
  double value = 0.0;
  bool regressed = false;
  std::string git_sha;
};

/// One metric's trajectory across the archived runs of a bench.
using TrendSeries = std::map<std::string, std::vector<TrendPoint>>;

std::string svg_sparkline(const std::string& metric,
                          const std::vector<TrendPoint>& points) {
  constexpr double kW = 640.0, kH = 140.0, kPad = 24.0;
  double lo = points.front().value, hi = points.front().value;
  for (const TrendPoint& p : points) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  if (hi - lo < 1e-12) {
    double bump = std::max(std::fabs(hi) * 0.05, 1e-6);
    lo -= bump;
    hi += bump;
  }
  auto x_of = [&](std::size_t i) {
    if (points.size() == 1) return kW / 2.0;
    return kPad + (kW - 2.0 * kPad) * static_cast<double>(i) /
                      static_cast<double>(points.size() - 1);
  };
  auto y_of = [&](double v) {
    return kH - kPad - (kH - 2.0 * kPad) * (v - lo) / (hi - lo);
  };

  std::ostringstream svg;
  svg << fmt("<svg viewBox=\"0 0 %g %g\" width=\"%g\" height=\"%g\">", kW,
             kH, kW, kH);
  svg << fmt("<text x=\"4\" y=\"14\" class=\"lbl\">%s</text>",
             html_escape(metric).c_str());
  svg << fmt("<text x=\"%g\" y=\"14\" class=\"lbl\" text-anchor=\"end\">"
             "min %s · max %s</text>",
             kW - 4.0, num(lo).c_str(), num(hi).c_str());
  if (points.size() > 1) {
    svg << "<polyline fill=\"none\" stroke=\"#4878a8\" stroke-width=\"1.5\" "
           "points=\"";
    for (std::size_t i = 0; i < points.size(); ++i)
      svg << fmt("%.1f,%.1f ", x_of(i), y_of(points[i].value));
    svg << "\"/>";
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TrendPoint& p = points[i];
    svg << fmt("<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%s\" fill=\"%s\">"
               "<title>run %zu (%s): %s%s</title></circle>",
               x_of(i), y_of(p.value), p.regressed ? "5" : "3",
               p.regressed ? "#c23b3b" : "#4878a8", i + 1,
               html_escape(p.git_sha.substr(0, 12)).c_str(),
               num(p.value).c_str(),
               p.regressed ? " — regressed vs baseline" : "");
    svg << "\n";
  }
  svg << "</svg>";
  return svg.str();
}

}  // namespace

std::string trend_html(const std::vector<RunRecord>& records,
                       const std::vector<Baseline>& baselines) {
  // Group by bench, preserving archive (chronological) order within and
  // first-appearance order across benches.
  std::vector<std::string> bench_order;
  std::map<std::string, std::vector<const RunRecord*>> by_bench;
  for (const RunRecord& r : records) {
    if (by_bench.find(r.bench) == by_bench.end())
      bench_order.push_back(r.bench);
    by_bench[r.bench].push_back(&r);
  }

  std::ostringstream html;
  html << "<!doctype html><html><head><meta charset=\"utf-8\">"
          "<title>edgestab trend report</title><style>\n"
          "body{font-family:system-ui,sans-serif;margin:24px;"
          "color:#1c2733}\n"
          "h1{font-size:20px}h2{font-size:16px;border-bottom:1px solid "
          "#d7dde4;padding-bottom:4px;margin-top:28px}\n"
          ".lbl{font-size:11px;fill:#5a6673;font-family:monospace}\n"
          "svg{background:#f7f9fb;border:1px solid #e1e6ec;"
          "border-radius:4px;margin:6px 0;display:block}\n"
          ".meta{color:#5a6673;font-size:13px}\n"
          ".legend{font-size:12px;color:#5a6673;margin:8px 0}\n"
          ".dot{display:inline-block;width:9px;height:9px;"
          "border-radius:50%;margin:0 4px 0 10px}\n"
          "</style></head><body>\n";
  html << "<h1>edgestab cross-run trend report</h1>\n";
  html << fmt("<p class=\"meta\">%zu archived run(s) across %zu "
              "bench(es).</p>\n",
              records.size(), bench_order.size());
  html << "<p class=\"legend\"><span class=\"dot\" "
          "style=\"background:#4878a8\"></span>archived run"
          "<span class=\"dot\" style=\"background:#c23b3b\"></span>"
          "regressed vs committed baseline</p>\n";

  for (const std::string& bench : bench_order) {
    const std::vector<const RunRecord*>& runs = by_bench[bench];
    const Baseline* baseline = nullptr;
    for (const Baseline& b : baselines)
      if (b.bench == bench) baseline = &b;

    TrendSeries series;
    std::vector<std::string> series_order;
    auto push = [&](const std::string& name, double value,
                    bool regressed, const std::string& sha) {
      if (series.find(name) == series.end()) series_order.push_back(name);
      series[name].push_back({value, regressed, sha});
    };

    for (const RunRecord* run : runs) {
      // Collapse each run the same way baselines/comparisons do, then
      // pick up this run's verdicts so regressions mark the plot.
      Baseline collapsed = baseline_from_record(*run);
      std::map<std::string, Verdict> verdicts;
      if (baseline != nullptr) {
        CompareReport report = compare_run(*run, *baseline);
        for (const MetricVerdict& v : report.verdicts)
          verdicts[v.name] = v.verdict;
      }
      for (const BaselineMetric& m : collapsed.metrics) {
        if (m.kind == MetricKind::kDigest) continue;
        if (!std::isfinite(m.median)) continue;
        auto it = verdicts.find(m.name);
        bool regressed =
            it != verdicts.end() && it->second == Verdict::kRegressed;
        push(m.name, m.median, regressed, run->git_sha);
      }
    }

    html << fmt("<h2>%s</h2>\n", html_escape(bench).c_str());
    html << fmt("<p class=\"meta\">%zu run(s)%s</p>\n", runs.size(),
                baseline != nullptr ? "; baseline present"
                                    : "; no committed baseline");
    for (const std::string& name : series_order)
      html << svg_sparkline(name, series[name]) << "\n";
  }

  html << "</body></html>\n";
  return html.str();
}

}  // namespace edgestab::obs
