#include "core/instability.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace edgestab {

namespace {

template <typename KeyFn>
std::map<int, InstabilityResult> grouped_instability(
    std::span<const Observation> observations, KeyFn key_of) {
  // (group key, item) -> counts
  std::map<std::pair<int, int>, obs::ItemCounts> items;
  for (const Observation& o : observations)
    items[{key_of(o), o.item}].add(o.correct);
  std::map<int, InstabilityResult> out;
  for (const auto& [key, counts] : items) {
    const obs::ItemVerdict v = counts.verdict();
    if (v != obs::ItemVerdict::kSkipped) out[key.first].add(v);
  }
  return out;
}

}  // namespace

InstabilityResult compute_instability(
    std::span<const Observation> observations) {
  auto grouped = grouped_instability(observations,
                                     [](const Observation&) { return 0; });
  return grouped.empty() ? InstabilityResult{} : grouped.begin()->second;
}

InstabilityResult pairwise_instability(
    std::span<const Observation> observations, int env_a, int env_b) {
  std::vector<Observation> filtered;
  for (const Observation& o : observations)
    if (o.env == env_a || o.env == env_b) filtered.push_back(o);
  return compute_instability(filtered);
}

std::map<int, InstabilityResult> instability_by_class(
    std::span<const Observation> observations) {
  return grouped_instability(
      observations, [](const Observation& o) { return o.class_id; });
}

std::map<int, InstabilityResult> instability_by_angle(
    std::span<const Observation> observations) {
  return grouped_instability(observations,
                             [](const Observation& o) { return o.angle; });
}

InstabilityCi bootstrap_instability_ci(
    std::span<const Observation> observations, double confidence,
    int iterations, std::uint64_t seed) {
  ES_CHECK(confidence > 0.0 && confidence < 1.0);
  ES_CHECK(iterations >= 10);

  // Collapse observations into per-item verdicts once.
  std::map<int, obs::ItemCounts> items;
  for (const Observation& o : observations) items[o.item].add(o.correct);
  std::vector<obs::ItemVerdict> outcomes;
  InstabilityResult tally;
  for (const auto& [item, counts] : items) {
    const obs::ItemVerdict v = counts.verdict();
    if (v == obs::ItemVerdict::kSkipped) continue;
    outcomes.push_back(v);
    tally.add(v);
  }

  InstabilityCi ci;
  if (outcomes.empty()) return ci;
  ci.point = tally.instability();

  Pcg32 rng(seed, 17);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iterations));
  const auto n = static_cast<std::uint32_t>(outcomes.size());
  for (int it = 0; it < iterations; ++it) {
    int u = 0;
    for (std::uint32_t i = 0; i < n; ++i)
      u += outcomes[rng.uniform_int(n)] == obs::ItemVerdict::kUnstable ? 1 : 0;
    samples.push_back(static_cast<double>(u) / n);
  }
  double tail = (1.0 - confidence) / 2.0;
  ci.lower = quantile(samples, tail);
  ci.upper = quantile(samples, 1.0 - tail);
  return ci;
}

double environment_accuracy(std::span<const Observation> observations,
                            int env) {
  int total = 0;
  int correct = 0;
  for (const Observation& o : observations) {
    if (o.env != env) continue;
    ++total;
    if (o.correct) ++correct;
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

std::vector<int> environments(std::span<const Observation> observations) {
  std::vector<int> envs;
  for (const Observation& o : observations)
    if (std::find(envs.begin(), envs.end(), o.env) == envs.end())
      envs.push_back(o.env);
  std::sort(envs.begin(), envs.end());
  return envs;
}

}  // namespace edgestab
