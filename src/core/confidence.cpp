#include "core/confidence.h"

#include <algorithm>
#include <map>

namespace edgestab {

ConfidenceSplit split_confidences(
    std::span<const Observation> observations) {
  std::map<int, obs::ItemCounts> items;
  for (const Observation& o : observations) items[o.item].add(o.correct);
  ConfidenceSplit split;
  for (const Observation& o : observations) {
    const obs::ItemVerdict v = items[o.item].verdict();
    if (v == obs::ItemVerdict::kSkipped) continue;
    if (v == obs::ItemVerdict::kUnstable) {
      (o.correct ? split.unstable_correct : split.unstable_incorrect)
          .push_back(o.confidence);
    } else {
      (o.correct ? split.stable_correct : split.stable_incorrect)
          .push_back(o.confidence);
    }
  }
  return split;
}

std::vector<PrPoint> precision_recall_curve(
    std::span<const std::pair<double, bool>> confidence_correct) {
  std::vector<std::pair<double, bool>> sorted(confidence_correct.begin(),
                                              confidence_correct.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<PrPoint> curve;
  curve.reserve(sorted.size());
  const double total = static_cast<double>(sorted.size());
  int emitted = 0;
  int correct = 0;
  for (const auto& [conf, is_correct] : sorted) {
    ++emitted;
    if (is_correct) ++correct;
    PrPoint p;
    p.threshold = conf;
    p.precision = static_cast<double>(correct) / emitted;
    p.recall = total > 0 ? static_cast<double>(correct) / total : 0.0;
    curve.push_back(p);
  }
  return curve;
}

double average_precision(std::span<const PrPoint> curve) {
  double ap = 0.0;
  double prev_recall = 0.0;
  for (const PrPoint& p : curve) {
    ap += (p.recall - prev_recall) * p.precision;
    prev_recall = p.recall;
  }
  return ap;
}

}  // namespace edgestab
