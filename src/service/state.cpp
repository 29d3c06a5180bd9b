#include "service/state.h"

#include <initializer_list>

#include "util/hashing.h"

namespace edgestab::service {

const char* outcome_name(ShotOutcome outcome) {
  switch (outcome) {
    case ShotOutcome::kOk: return "ok";
    case ShotOutcome::kShed: return "shed";
    case ShotOutcome::kBreakerReject: return "breaker_reject";
    case ShotOutcome::kDeadlineTimeout: return "deadline_timeout";
    case ShotOutcome::kCaptureLost: return "capture_lost";
    case ShotOutcome::kDecodeLost: return "decode_lost";
  }
  return "?";
}

namespace {

/// True when `value` over `range` sums to exactly `total`. The values are
/// non-negative, so a sum past LLONG_MAX cannot equal any total.
template <typename Range, typename Value>
bool sums_to(const Range& range, Value value, long long total) {
  long long sum = 0;
  for (const auto& x : range)
    if (__builtin_add_overflow(sum, value(x), &sum)) return false;
  return sum == total;
}

bool sums_to(std::initializer_list<long long> parts, long long total) {
  return sums_to(parts, [](long long p) { return p; }, total);
}

}  // namespace

std::string aggregate_inconsistency(const AggregateState& agg,
                                    long long slot, int devices,
                                    long long ledger_events) {
  const obs::VerdictTally& v = agg.verdicts;
  for (long long n :
       {agg.slots_folded, agg.shots_folded, agg.ok, agg.correct, agg.shed,
        agg.rejected, agg.timeouts, agg.capture_lost, agg.decode_lost,
        agg.fault_events, agg.retries, agg.slots_fully_covered,
        agg.slots_degraded, agg.slots_lost, v.total_items,
        v.unstable_items, v.all_correct_items, v.all_incorrect_items})
    if (n < 0) return "negative count";
  for (const DeviceAggregate& d : agg.devices)
    for (long long n : {d.ok, d.correct, d.shed, d.rejected, d.timeouts,
                        d.capture_lost, d.decode_lost, d.latency_us_sum})
      if (n < 0) return "negative per-device count";
  for (const auto& [bucket, count] : agg.latency_hist_100us)
    if (bucket < 0 || count < 0) return "negative latency histogram entry";

  long long shots = 0;
  if (agg.slots_folded != slot) return "slots_folded != slot";
  if (__builtin_mul_overflow(slot, static_cast<long long>(devices), &shots) ||
      agg.shots_folded != shots)
    return "shots_folded != slot * devices";
  if (!sums_to({agg.ok, agg.shed, agg.rejected, agg.timeouts,
                agg.capture_lost, agg.decode_lost},
               agg.shots_folded))
    return "ok + shed + rejected + timeouts + capture_lost + decode_lost != "
           "shots_folded";
  if (!sums_to({agg.slots_fully_covered, agg.slots_degraded, agg.slots_lost},
               agg.slots_folded))
    return "slots_fully_covered + slots_degraded + slots_lost != "
           "slots_folded";
  if (!sums_to({v.unstable_items, v.all_correct_items, v.all_incorrect_items},
               v.total_items))
    return "unstable + all_correct + all_incorrect slots != slots_observed";
  if (v.total_items > agg.slots_folded)
    return "slots_observed > slots_folded";
  if (agg.correct > agg.ok) return "correct > ok";

  if (agg.devices.size() != static_cast<std::size_t>(devices))
    return "per-device rows != devices";
  struct Column {
    const char* name;
    long long DeviceAggregate::*field;
    long long total;
  };
  const Column columns[] = {
      {"ok", &DeviceAggregate::ok, agg.ok},
      {"correct", &DeviceAggregate::correct, agg.correct},
      {"shed", &DeviceAggregate::shed, agg.shed},
      {"rejected", &DeviceAggregate::rejected, agg.rejected},
      {"timeouts", &DeviceAggregate::timeouts, agg.timeouts},
      {"capture_lost", &DeviceAggregate::capture_lost, agg.capture_lost},
      {"decode_lost", &DeviceAggregate::decode_lost, agg.decode_lost}};
  for (const Column& c : columns)
    if (!sums_to(agg.devices,
                 [&c](const DeviceAggregate& d) { return d.*c.field; },
                 c.total))
      return std::string("per-device ") + c.name + " != " + c.name;

  if (!sums_to(agg.latency_hist_100us,
               [](const auto& entry) { return entry.second; }, agg.ok))
    return "latency histogram total != ok";
  if (agg.fault_events != ledger_events)
    return "fault_events != ledger events";
  return "";
}

std::uint64_t aggregate_digest(const AggregateState& agg) {
  Fingerprint fp;
  fp.add(std::string("edgestab-service-agg"));
  fp.add(agg.slots_folded).add(agg.shots_folded);
  fp.add(agg.ok).add(agg.correct).add(agg.shed).add(agg.rejected);
  fp.add(agg.timeouts).add(agg.capture_lost).add(agg.decode_lost);
  fp.add(agg.fault_events).add(agg.retries);
  fp.add(agg.slots_fully_covered).add(agg.slots_degraded);
  fp.add(agg.slots_lost);
  fp.add(agg.verdicts.total_items).add(agg.verdicts.unstable_items);
  fp.add(agg.verdicts.all_correct_items);
  fp.add(agg.verdicts.all_incorrect_items);
  fp.add(agg.digest_chain);
  fp.add(static_cast<std::uint64_t>(agg.latency_hist_100us.size()));
  for (const auto& [bucket, count] : agg.latency_hist_100us)
    fp.add(bucket).add(count);
  fp.add(static_cast<std::uint64_t>(agg.devices.size()));
  for (const DeviceAggregate& d : agg.devices) {
    fp.add(d.ok).add(d.correct).add(d.shed).add(d.rejected);
    fp.add(d.timeouts).add(d.capture_lost).add(d.decode_lost);
    fp.add(d.latency_us_sum);
  }
  return fp.value();
}

std::uint64_t scheduler_digest(const SchedulerState& sched) {
  Fingerprint fp;
  fp.add(std::string("edgestab-service-sched"));
  fp.add(sched.next_shot);
  fp.add(static_cast<std::uint64_t>(sched.devices.size()));
  for (const DeviceSchedState& d : sched.devices) {
    const BreakerSnapshot& b = d.breaker;
    fp.add(b.state).add(b.consecutive_timeouts).add(b.cooldown_left);
    fp.add(b.probe_successes).add(b.probe_rounds);
    fp.add(static_cast<std::uint64_t>(b.sticky ? 1 : 0));
    fp.add(b.opens).add(b.closes).add(b.rejects);
    fp.add(d.backlog_us);
  }
  return fp.value();
}

}  // namespace edgestab::service
