#include "obs/fault_ledger.h"

#include <algorithm>
#include <tuple>

#include "util/hashing.h"

namespace edgestab::obs {

namespace {

/// Canonical event order: stable across lane counts and merge order.
bool event_less(const FaultEvent& a, const FaultEvent& b) {
  return std::tie(a.device, a.item, a.shot, a.attempt, a.kind, a.detail) <
         std::tie(b.device, b.item, b.shot, b.attempt, b.kind, b.detail);
}

}  // namespace

const char* fault_event_kind_name(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kCaptureDropout: return "capture_dropout";
    case FaultEventKind::kTransientFailure: return "transient_failure";
    case FaultEventKind::kPayloadBitFlip: return "payload_bit_flip";
    case FaultEventKind::kPayloadTruncation: return "payload_truncation";
    case FaultEventKind::kStragglerDelay: return "straggler_delay";
    case FaultEventKind::kRetry: return "retry";
    case FaultEventKind::kDecodeFailure: return "decode_failure";
    case FaultEventKind::kShotLost: return "shot_lost";
    case FaultEventKind::kQuarantine: return "quarantine";
    case FaultEventKind::kShedOverload: return "shed_overload";
    case FaultEventKind::kDeadlineTimeout: return "deadline_timeout";
    case FaultEventKind::kBreakerOpen: return "breaker_open";
    case FaultEventKind::kBreakerReject: return "breaker_reject";
    case FaultEventKind::kBreakerProbe: return "breaker_probe";
    case FaultEventKind::kBreakerClose: return "breaker_close";
  }
  return "unknown";
}

void FaultLedger::record(const std::string& group, const FaultEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  raw_[group].push_back(event);
}

void FaultLedger::merge(const FaultLedger& other) {
  // Copy under the source lock, then fold under ours (never hold both —
  // merge(a,b) racing merge(b,a) must not deadlock).
  std::map<std::string, std::vector<FaultEvent>> theirs;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    theirs = other.raw_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [group, events] : theirs) {
    auto& raw = raw_[group];
    raw.insert(raw.end(), events.begin(), events.end());
  }
}

FaultGroupSummary FaultLedger::build_summary(
    const std::string& group, std::vector<FaultEvent> events) const {
  // Parallel lanes append in completion order; sort to the canonical
  // coordinate order so entries, tallies and the digest are identical at
  // any thread count.
  std::stable_sort(events.begin(), events.end(), event_less);

  FaultGroupSummary s;
  s.group = group;
  s.total_events = static_cast<int>(events.size());

  std::map<int, DeviceFaultRow> rows;
  for (const FaultEvent& e : events) {
    ++s.events_by_kind[static_cast<int>(e.kind)];
    DeviceFaultRow& row = rows[e.device];
    row.device = e.device;
    switch (e.kind) {
      case FaultEventKind::kCaptureDropout: ++row.dropouts; break;
      case FaultEventKind::kTransientFailure: ++row.transient_failures; break;
      case FaultEventKind::kPayloadBitFlip: ++row.payload_bit_flips; break;
      case FaultEventKind::kPayloadTruncation:
        ++row.payload_truncations;
        break;
      case FaultEventKind::kStragglerDelay:
        ++row.stragglers;
        row.total_delay_ms += e.detail;
        break;
      case FaultEventKind::kRetry:
        ++row.retries;
        row.total_delay_ms += e.detail;
        break;
      case FaultEventKind::kDecodeFailure: ++row.decode_failures; break;
      case FaultEventKind::kShotLost:
        ++row.shots_lost;
        ++s.shots_lost;
        break;
      case FaultEventKind::kQuarantine:
        row.quarantined = true;
        if (row.quarantined_from_item < 0 || e.item < row.quarantined_from_item)
          row.quarantined_from_item = e.item;
        break;
      case FaultEventKind::kShedOverload:
        ++row.shed;
        ++s.shots_lost;
        break;
      case FaultEventKind::kDeadlineTimeout:
        ++row.deadline_timeouts;
        break;
      case FaultEventKind::kBreakerOpen: ++row.breaker_opens; break;
      case FaultEventKind::kBreakerReject:
        ++row.breaker_rejects;
        ++s.shots_lost;
        break;
      case FaultEventKind::kBreakerProbe:
      case FaultEventKind::kBreakerClose:
        break;  // state-machine receipts; counted in events_by_kind only
    }
    if (s.entries.size() < kMaxEntriesPerGroup) {
      s.entries.push_back(e);
    } else {
      ++s.dropped_entries;
    }
  }

  s.devices.reserve(rows.size());
  for (const auto& [_, row] : rows) {
    if (row.quarantined) ++s.quarantined_devices;
    s.devices.push_back(row);
  }
  return s;
}

std::vector<FaultGroupSummary> FaultLedger::summaries() const {
  std::map<std::string, std::vector<FaultEvent>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = raw_;
  }
  std::vector<FaultGroupSummary> out;
  out.reserve(snapshot.size());
  for (auto& [group, events] : snapshot)
    out.push_back(build_summary(group, std::move(events)));
  return out;
}

std::optional<FaultGroupSummary> FaultLedger::find_group(
    const std::string& group) const {
  std::vector<FaultEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = raw_.find(group);
    if (it == raw_.end()) return std::nullopt;
    events = it->second;
  }
  return build_summary(group, std::move(events));
}

bool FaultLedger::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return raw_.empty();
}

std::vector<FaultEvent> FaultLedger::export_group_raw(
    const std::string& group) const {
  std::vector<FaultEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = raw_.find(group);
    if (it == raw_.end()) return events;
    events = it->second;
  }
  std::stable_sort(events.begin(), events.end(), event_less);
  return events;
}

void FaultLedger::import_group_raw(const std::string& group,
                                   std::vector<FaultEvent> events) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events.empty()) {
    raw_.erase(group);
    return;
  }
  raw_[group] = std::move(events);
}

std::uint64_t FaultLedger::digest() const {
  Fingerprint fp;
  for (const FaultGroupSummary& s : summaries()) {
    fp.add(s.group).add(s.total_events).add(s.shots_lost)
        .add(s.quarantined_devices);
    for (const auto& [kind, n] : s.events_by_kind) fp.add(kind).add(n);
    for (const DeviceFaultRow& row : s.devices) {
      fp.add(row.device)
          .add(row.dropouts)
          .add(row.transient_failures)
          .add(row.payload_bit_flips)
          .add(row.payload_truncations)
          .add(row.stragglers)
          .add(row.retries)
          .add(row.decode_failures)
          .add(row.shots_lost)
          .add(row.shed)
          .add(row.deadline_timeouts)
          .add(row.breaker_opens)
          .add(row.breaker_rejects)
          .add(row.quarantined ? 1 : 0)
          .add(row.quarantined_from_item)
          .add(row.total_delay_ms);
    }
    for (const FaultEvent& e : s.entries) {
      fp.add(static_cast<int>(e.kind))
          .add(e.device)
          .add(e.item)
          .add(e.shot)
          .add(e.attempt)
          .add(e.recovered ? 1 : 0)
          .add(e.detail);
    }
  }
  return fp.value();
}

void FaultLedger::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  raw_.clear();
}

}  // namespace edgestab::obs
