#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "runtime/seed.h"
#include "util/check.h"
#include "util/hashing.h"

namespace edgestab::fault {

namespace {

// Site salts keep the per-site draw streams disjoint even for identical
// (device, item, shot) coordinates.
constexpr std::uint64_t kSiteDropout = 0xD201;
constexpr std::uint64_t kSiteTransient = 0xD202;
constexpr std::uint64_t kSitePayload = 0xD203;
constexpr std::uint64_t kSiteStraggler = 0xD204;

/// One uniform draw for a (site, coordinates) tuple.
double site_draw(std::uint64_t seed, std::uint64_t site, std::uint64_t device,
                 std::uint64_t item, std::uint64_t shot,
                 std::uint64_t attempt = 0) {
  Pcg32 rng = runtime::derive_rng(seed, site, device, item, shot, attempt);
  return rng.uniform();
}

}  // namespace

bool FaultPlan::any() const {
  return dropout_rate > 0.0 || transient_rate > 0.0 || bitflip_rate > 0.0 ||
         truncate_rate > 0.0 || straggler_rate > 0.0;
}

std::uint64_t FaultPlan::digest() const {
  Fingerprint fp;
  fp.add(dropout_rate);
  fp.add(transient_rate);
  fp.add(bitflip_rate);
  fp.add(truncate_rate);
  fp.add(straggler_rate);
  fp.add(burst);
  fp.add(max_bitflips);
  fp.add(straggler_mean_ms);
  fp.add(max_attempts);
  fp.add(quarantine_after);
  fp.add(backoff_base_ms);
  fp.add(latency_scale);
  fp.add(latency_slow_boost);
  fp.add(deadline_ms);
  fp.add(seed);
  return fp.value();
}

std::string FaultPlan::summary() const {
  std::ostringstream os;
  os << "dropout=" << dropout_rate << ",transient=" << transient_rate
     << ",bitflip=" << bitflip_rate << ",truncate=" << truncate_rate
     << ",straggler=" << straggler_rate << ",burst=" << burst
     << ",attempts=" << max_attempts
     << ",quarantine_after=" << quarantine_after;
  // Latency knobs print only when set, so pre-service fault summaries —
  // and the manifests/baselines that embed them — stay byte-identical.
  if (latency_scale != 1.0) os << ",lat_scale=" << latency_scale;
  if (latency_slow_boost != 0.0) os << ",lat_slow=" << latency_slow_boost;
  if (deadline_ms != 0.0) os << ",deadline_ms=" << deadline_ms;
  os << ",seed=" << seed;
  return os.str();
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "off" || spec == "none") return plan;

  auto apply_preset = [&](const std::string& name) {
    if (name == "light") {
      plan.dropout_rate = 0.02;
      plan.transient_rate = 0.02;
      plan.bitflip_rate = 0.02;
      plan.truncate_rate = 0.01;
      plan.straggler_rate = 0.05;
      plan.burst = 0.2;
    } else if (name == "moderate") {
      plan.dropout_rate = 0.05;
      plan.transient_rate = 0.05;
      plan.bitflip_rate = 0.05;
      plan.truncate_rate = 0.03;
      plan.straggler_rate = 0.10;
      plan.burst = 0.3;
    } else if (name == "heavy") {
      plan.dropout_rate = 0.10;
      plan.transient_rate = 0.12;
      plan.bitflip_rate = 0.15;
      plan.truncate_rate = 0.08;
      plan.straggler_rate = 0.20;
      plan.burst = 0.5;
    } else {
      return false;
    }
    return true;
  };

  // Latency-class presets (fault/latency.h): they touch only the
  // latency knobs, so they compose with a fault preset and are allowed
  // at any position ("heavy,budget", "budget,deadline_ms=40").
  auto apply_latency_preset = [&](const std::string& name) {
    if (name == "flagship") {
      plan.latency_scale = 0.6;
      plan.latency_slow_boost = 0.0;
    } else if (name == "mid") {
      plan.latency_scale = 1.0;
      plan.latency_slow_boost = 0.0;
    } else if (name == "budget") {
      plan.latency_scale = 1.8;
      plan.latency_slow_boost = 0.08;
    } else {
      return false;
    }
    return true;
  };

  std::stringstream ss(spec);
  std::string token;
  bool first = true;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      ES_CHECK_MSG(apply_latency_preset(token) ||
                       (first && apply_preset(token)),
                   "bad fault plan token '" << token << "' in '" << spec
                                            << "'");
      first = false;
      continue;
    }
    first = false;
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    try {
      if (key == "dropout") plan.dropout_rate = std::stod(value);
      else if (key == "transient") plan.transient_rate = std::stod(value);
      else if (key == "bitflip") plan.bitflip_rate = std::stod(value);
      else if (key == "truncate") plan.truncate_rate = std::stod(value);
      else if (key == "straggler") plan.straggler_rate = std::stod(value);
      else if (key == "burst") plan.burst = std::stod(value);
      else if (key == "max_bitflips") plan.max_bitflips = std::stoi(value);
      else if (key == "straggler_ms") plan.straggler_mean_ms = std::stod(value);
      else if (key == "attempts") plan.max_attempts = std::stoi(value);
      else if (key == "quarantine_after")
        plan.quarantine_after = std::stoi(value);
      else if (key == "backoff_ms") plan.backoff_base_ms = std::stod(value);
      else if (key == "lat_scale") plan.latency_scale = std::stod(value);
      else if (key == "lat_slow") plan.latency_slow_boost = std::stod(value);
      else if (key == "deadline_ms") plan.deadline_ms = std::stod(value);
      else if (key == "seed") plan.seed = std::stoull(value);
      else
        ES_CHECK_MSG(false, "unknown fault plan key '" << key << "' in '"
                                                       << spec << "'");
    } catch (const std::invalid_argument&) {
      ES_CHECK_MSG(false, "bad fault plan value '" << value << "' for key '"
                                                   << key << "'");
    } catch (const std::out_of_range&) {
      ES_CHECK_MSG(false, "fault plan value out of range for key '" << key
                                                                    << "'");
    }
  }

  auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  ES_CHECK_MSG(in_unit(plan.dropout_rate) && in_unit(plan.transient_rate) &&
                   in_unit(plan.bitflip_rate) &&
                   in_unit(plan.truncate_rate) &&
                   in_unit(plan.straggler_rate) && in_unit(plan.burst),
               "fault rates must lie in [0, 1]: " << spec);
  ES_CHECK_MSG(plan.max_attempts >= 1 && plan.quarantine_after >= 1 &&
                   plan.max_bitflips >= 1,
               "fault plan counts must be >= 1: " << spec);
  ES_CHECK_MSG(plan.latency_scale > 0.0 && plan.latency_slow_boost >= 0.0 &&
                   plan.latency_slow_boost <= 1.0 && plan.deadline_ms >= 0.0,
               "latency knobs out of range (lat_scale > 0, lat_slow in "
               "[0, 1], deadline_ms >= 0): "
                   << spec);
  return plan;
}

void FaultInjector::configure(const FaultPlan& plan) {
  plan_ = plan;
  enabled_.store(plan.any(), std::memory_order_relaxed);
}

void FaultInjector::reset() {
  plan_ = FaultPlan{};
  enabled_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::capture_dropout(std::uint64_t device, std::uint64_t item,
                                    std::uint64_t shot) const {
  if (!enabled() || plan_.dropout_rate <= 0.0) return false;
  // One-step burst correlation: the effective rate rises while the
  // device's previous shot would itself have dropped at the base rate.
  // Defined through draws rather than observed history so the schedule
  // stays a pure function of coordinates (thread-count independent).
  double rate = plan_.dropout_rate;
  if (plan_.burst > 0.0 && (item > 0 || shot > 0)) {
    std::uint64_t prev_item = shot > 0 ? item : item - 1;
    std::uint64_t prev_shot = shot > 0 ? shot - 1 : shot;
    if (site_draw(plan_.seed, kSiteDropout, device, prev_item, prev_shot) <
        plan_.dropout_rate)
      rate = std::min(1.0, rate + plan_.burst);
  }
  return site_draw(plan_.seed, kSiteDropout, device, item, shot) < rate;
}

bool FaultInjector::transient_failure(std::uint64_t device,
                                      std::uint64_t item, std::uint64_t shot,
                                      int attempt) const {
  if (!enabled() || plan_.transient_rate <= 0.0) return false;
  // Retries of a transient failure are correlated through the burst
  // term: once attempt 0 failed, later attempts fail more easily.
  double rate = plan_.transient_rate;
  if (attempt > 0 && plan_.burst > 0.0)
    rate = std::min(1.0, rate + plan_.burst * plan_.transient_rate);
  return site_draw(plan_.seed, kSiteTransient, device, item, shot,
                   static_cast<std::uint64_t>(attempt)) < rate;
}

PayloadFaults FaultInjector::corrupt_payload(Bytes& payload,
                                             std::uint64_t device,
                                             std::uint64_t item,
                                             std::uint64_t shot,
                                             int attempt) const {
  PayloadFaults faults;
  if (!enabled() || payload.empty()) return faults;
  Pcg32 rng = runtime::derive_rng(plan_.seed, kSitePayload, device, item,
                                  shot, static_cast<std::uint64_t>(attempt));
  if (plan_.truncate_rate > 0.0 && rng.uniform() < plan_.truncate_rate) {
    // Lose a uniformly drawn tail, always at least one byte.
    auto keep = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::uint32_t>(payload.size())));
    faults.truncated_bytes = payload.size() - keep;
    payload.resize(keep);
  }
  if (!payload.empty() && plan_.bitflip_rate > 0.0 &&
      rng.uniform() < plan_.bitflip_rate) {
    int flips = rng.uniform_int(1, plan_.max_bitflips);
    for (int f = 0; f < flips; ++f) {
      auto bit = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::uint32_t>(payload.size() * 8)));
      payload[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
    }
    faults.bit_flips = flips;
  }
  return faults;
}

double FaultInjector::straggler_delay_ms(std::uint64_t device,
                                         std::uint64_t item,
                                         std::uint64_t shot) const {
  if (!enabled() || plan_.straggler_rate <= 0.0) return 0.0;
  Pcg32 rng =
      runtime::derive_rng(plan_.seed, kSiteStraggler, device, item, shot);
  if (rng.uniform() >= plan_.straggler_rate) return 0.0;
  // Exponential tail — most stragglers are mild, a few are extreme.
  double u = rng.uniform();
  return plan_.straggler_mean_ms * -std::log1p(-u);
}

double FaultInjector::backoff_ms(int attempt) const {
  return plan_.backoff_base_ms * static_cast<double>(1 << std::min(attempt, 20));
}

}  // namespace edgestab::fault
