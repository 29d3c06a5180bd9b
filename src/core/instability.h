// Instability — the paper's core metric (§2.2, §4.1): the share of
// stimuli (the same displayed image, observed in several environments —
// phones, codecs, ISPs, OSes) that are unstable. This header groups
// observations by stimulus; each stimulus's verdict and their tally are
// the one definition in obs/verdict.h.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "obs/verdict.h"

namespace edgestab {

/// One classification outcome of one stimulus in one environment.
struct Observation {
  int item = 0;       ///< stimulus id (shared across environments)
  int env = 0;        ///< environment index
  bool correct = false;
  double confidence = 0.0;  ///< prediction score of the chosen class
  int predicted = -1;
  int class_id = -1;  ///< ground-truth class (grouping key)
  int angle = -1;     ///< viewpoint (grouping key)
};

using InstabilityResult = obs::VerdictTally;

/// Group instability across all environments present in `observations`.
InstabilityResult compute_instability(
    std::span<const Observation> observations);

/// Instability restricted to a pair of environments.
InstabilityResult pairwise_instability(
    std::span<const Observation> observations, int env_a, int env_b);

/// Group instability computed separately per ground-truth class / angle.
std::map<int, InstabilityResult> instability_by_class(
    std::span<const Observation> observations);
std::map<int, InstabilityResult> instability_by_angle(
    std::span<const Observation> observations);

/// Bootstrap confidence interval for the group instability: items are
/// resampled with replacement `iterations` times and the percentile
/// interval at the given confidence level is returned. Gives the
/// measurement error the paper's point estimates omit.
struct InstabilityCi {
  double point = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};
InstabilityCi bootstrap_instability_ci(
    std::span<const Observation> observations, double confidence = 0.95,
    int iterations = 1000, std::uint64_t seed = 1);

/// Accuracy of a single environment's observations.
double environment_accuracy(std::span<const Observation> observations,
                            int env);

/// All environment ids present.
std::vector<int> environments(std::span<const Observation> observations);

}  // namespace edgestab
