#include "service/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <optional>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "obs/json.h"
#include "obs/manifest.h"
#include "util/file.h"
#include "util/hashing.h"

namespace edgestab::service {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

// 64-bit digests travel as hex strings (JsonValue::as_hex_u64); plain
// counters stay numeric.
bool parse_u64_hex(const JsonValue* v, std::uint64_t* out) {
  const std::optional<std::uint64_t> n =
      v != nullptr ? v->as_hex_u64() : std::nullopt;
  if (n) *out = *n;
  return n.has_value();
}

void write_aggregate(JsonWriter& w, const AggregateState& agg) {
  w.begin_object();
  w.key("slots_folded").value(static_cast<std::int64_t>(agg.slots_folded));
  w.key("shots_folded").value(static_cast<std::int64_t>(agg.shots_folded));
  w.key("ok").value(static_cast<std::int64_t>(agg.ok));
  w.key("correct").value(static_cast<std::int64_t>(agg.correct));
  w.key("shed").value(static_cast<std::int64_t>(agg.shed));
  w.key("rejected").value(static_cast<std::int64_t>(agg.rejected));
  w.key("timeouts").value(static_cast<std::int64_t>(agg.timeouts));
  w.key("capture_lost")
      .value(static_cast<std::int64_t>(agg.capture_lost));
  w.key("decode_lost").value(static_cast<std::int64_t>(agg.decode_lost));
  w.key("fault_events")
      .value(static_cast<std::int64_t>(agg.fault_events));
  w.key("retries").value(static_cast<std::int64_t>(agg.retries));
  w.key("slots_fully_covered")
      .value(static_cast<std::int64_t>(agg.slots_fully_covered));
  w.key("slots_degraded")
      .value(static_cast<std::int64_t>(agg.slots_degraded));
  w.key("slots_lost").value(static_cast<std::int64_t>(agg.slots_lost));
  w.key("slots_observed")
      .value(static_cast<std::int64_t>(agg.verdicts.total_items));
  w.key("unstable_slots")
      .value(static_cast<std::int64_t>(agg.verdicts.unstable_items));
  w.key("all_correct_slots")
      .value(static_cast<std::int64_t>(agg.verdicts.all_correct_items));
  w.key("all_incorrect_slots")
      .value(static_cast<std::int64_t>(agg.verdicts.all_incorrect_items));
  w.key("digest_chain").value(obs::hex_digest(agg.digest_chain));
  w.key("latency_hist_100us").begin_array();
  for (const auto& [bucket, count] : agg.latency_hist_100us) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(bucket));
    w.value(static_cast<std::int64_t>(count));
    w.end_array();
  }
  w.end_array();
  w.key("devices").begin_array();
  for (const DeviceAggregate& d : agg.devices) {
    w.begin_object();
    w.key("ok").value(static_cast<std::int64_t>(d.ok));
    w.key("correct").value(static_cast<std::int64_t>(d.correct));
    w.key("shed").value(static_cast<std::int64_t>(d.shed));
    w.key("rejected").value(static_cast<std::int64_t>(d.rejected));
    w.key("timeouts").value(static_cast<std::int64_t>(d.timeouts));
    w.key("capture_lost")
        .value(static_cast<std::int64_t>(d.capture_lost));
    w.key("decode_lost").value(static_cast<std::int64_t>(d.decode_lost));
    w.key("latency_us_sum")
        .value(static_cast<std::int64_t>(d.latency_us_sum));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool parse_aggregate(const JsonValue& v, AggregateState* out) {
  if (!v.is_object()) return false;
  AggregateState& a = *out;
  if (!v.read_ints<long long>(
          {{"slots_folded", &a.slots_folded},
              {"shots_folded", &a.shots_folded},
              {"ok", &a.ok},
              {"correct", &a.correct},
              {"shed", &a.shed},
              {"rejected", &a.rejected},
              {"timeouts", &a.timeouts},
              {"capture_lost", &a.capture_lost},
              {"decode_lost", &a.decode_lost},
              {"fault_events", &a.fault_events},
              {"retries", &a.retries},
              {"slots_fully_covered", &a.slots_fully_covered},
              {"slots_degraded", &a.slots_degraded},
              {"slots_lost", &a.slots_lost},
              {"slots_observed", &a.verdicts.total_items},
              {"unstable_slots", &a.verdicts.unstable_items},
              {"all_correct_slots", &a.verdicts.all_correct_items},
              {"all_incorrect_slots", &a.verdicts.all_incorrect_items}}))
    return false;
  if (!parse_u64_hex(v.find("digest_chain"), &a.digest_chain))
    return false;
  const JsonValue* hist = v.find("latency_hist_100us");
  if (hist == nullptr || !hist->is_array()) return false;
  a.latency_hist_100us.clear();
  for (const JsonValue& entry : hist->items) {
    if (!entry.is_array() || entry.items.size() != 2) return false;
    const std::optional<long long> bucket = entry.items[0].as_int(),
                                   count = entry.items[1].as_int();
    if (!bucket || !count) return false;
    a.latency_hist_100us[*bucket] = *count;
  }
  const JsonValue* devices = v.find("devices");
  if (devices == nullptr || !devices->is_array()) return false;
  a.devices.clear();
  for (const JsonValue& dv : devices->items) {
    if (!dv.is_object()) return false;
    DeviceAggregate d;
    if (!dv.read_ints<long long>({{"ok", &d.ok},
                                   {"correct", &d.correct},
                                   {"shed", &d.shed},
                                   {"rejected", &d.rejected},
                                   {"timeouts", &d.timeouts},
                                   {"capture_lost", &d.capture_lost},
                                   {"decode_lost", &d.decode_lost},
                                   {"latency_us_sum", &d.latency_us_sum}}))
      return false;
    a.devices.push_back(d);
  }
  return true;
}

void write_scheduler(JsonWriter& w, const SchedulerState& sched) {
  w.begin_object();
  w.key("next_shot").value(static_cast<std::int64_t>(sched.next_shot));
  w.key("devices").begin_array();
  for (const DeviceSchedState& d : sched.devices) {
    const BreakerSnapshot& b = d.breaker;
    w.begin_object();
    w.key("state").value(b.state);
    w.key("consecutive_timeouts").value(b.consecutive_timeouts);
    w.key("cooldown_left").value(b.cooldown_left);
    w.key("probe_successes").value(b.probe_successes);
    w.key("probe_rounds").value(b.probe_rounds);
    w.key("sticky").value(b.sticky);
    w.key("opens").value(static_cast<std::int64_t>(b.opens));
    w.key("closes").value(static_cast<std::int64_t>(b.closes));
    w.key("rejects").value(static_cast<std::int64_t>(b.rejects));
    w.key("backlog_us").value(static_cast<std::int64_t>(d.backlog_us));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool parse_scheduler(const JsonValue& v, SchedulerState* out) {
  if (!v.is_object() || !v.read_int("next_shot", &out->next_shot))
    return false;
  const JsonValue* devices = v.find("devices");
  if (devices == nullptr || !devices->is_array()) return false;
  out->devices.clear();
  for (const JsonValue& dv : devices->items) {
    if (!dv.is_object()) return false;
    DeviceSchedState d;
    BreakerSnapshot& b = d.breaker;
    if (!dv.read_ints<int>({{"state", &b.state},
                             {"consecutive_timeouts", &b.consecutive_timeouts},
                             {"cooldown_left", &b.cooldown_left},
                             {"probe_successes", &b.probe_successes},
                             {"probe_rounds", &b.probe_rounds}}) ||
        !dv.read_ints<long long>({{"opens", &b.opens},
                                   {"closes", &b.closes},
                                   {"rejects", &b.rejects},
                                   {"backlog_us", &d.backlog_us}}))
      return false;
    const JsonValue* sticky = dv.find("sticky");
    b.sticky = sticky != nullptr && sticky->is_bool() && sticky->boolean;
    out->devices.push_back(d);
  }
  return true;
}

void set_error(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::string serialize_checkpoint(const ServiceCheckpoint& ckpt) {
  JsonWriter w;
  w.begin_object();
  w.key("format").value(kCheckpointFormat);
  w.key("config_digest").value(obs::hex_digest(ckpt.config_digest));
  w.key("slot").value(static_cast<std::int64_t>(ckpt.slot));
  w.key("aggregate");
  write_aggregate(w, ckpt.agg);
  w.key("scheduler");
  write_scheduler(w, ckpt.sched);
  w.key("ledger_events").begin_array();
  for (const obs::FaultEvent& e : ckpt.ledger_events) {
    w.begin_array();
    w.value(static_cast<int>(e.kind));
    w.value(e.device);
    w.value(e.item);
    w.value(e.shot);
    w.value(e.attempt);
    w.value(e.recovered);
    w.value(e.detail);
    w.end_array();
  }
  w.end_array();
  w.key("telemetry_state").value(ckpt.telemetry_state);
  w.key("timeline_state").value(ckpt.timeline_state);
  w.end_object();
  return w.take();
}

bool parse_checkpoint(const std::string& json, ServiceCheckpoint* out,
                      std::string* error) {
  std::optional<JsonValue> doc = obs::parse_json(json, error);
  if (!doc.has_value()) return false;
  const JsonValue* format = doc->find("format");
  if (format == nullptr || format->string_or("") != kCheckpointFormat) {
    set_error(error, "not an edgestab-ckpt-v1 document");
    return false;
  }
  ServiceCheckpoint ckpt;
  if (!parse_u64_hex(doc->find("config_digest"), &ckpt.config_digest)) {
    set_error(error, "bad config_digest");
    return false;
  }
  ckpt.slot = -1;
  if (!doc->read_int("slot", &ckpt.slot) || ckpt.slot < 0) {
    set_error(error, "bad slot");
    return false;
  }
  const JsonValue* agg = doc->find("aggregate");
  if (agg == nullptr || !parse_aggregate(*agg, &ckpt.agg)) {
    set_error(error, "bad aggregate state");
    return false;
  }
  const JsonValue* sched = doc->find("scheduler");
  if (sched == nullptr || !parse_scheduler(*sched, &ckpt.sched)) {
    set_error(error, "bad scheduler state");
    return false;
  }
  const JsonValue* events = doc->find("ledger_events");
  if (events == nullptr || !events->is_array()) {
    set_error(error, "bad ledger_events");
    return false;
  }
  for (const JsonValue& ev : events->items) {
    if (!ev.is_array() || ev.items.size() != 7) {
      set_error(error, "bad ledger event row");
      return false;
    }
    std::optional<int> f[5];
    for (int i = 0; i < 5; ++i) f[i] = ev.items[i].as_int<int>();
    if (!f[0] || !f[1] || !f[2] || !f[3] || !f[4] || *f[0] < 0 ||
        *f[0] > static_cast<int>(obs::FaultEventKind::kBreakerClose)) {
      set_error(error, "bad ledger event row");
      return false;
    }
    ckpt.ledger_events.push_back(
        {static_cast<obs::FaultEventKind>(*f[0]), *f[1], *f[2], *f[3], *f[4],
         ev.items[5].is_bool() && ev.items[5].boolean,
         ev.items[6].number_or(0.0)});
  }
  const JsonValue* telemetry = doc->find("telemetry_state");
  if (telemetry == nullptr || !telemetry->is_string()) {
    set_error(error, "bad telemetry_state");
    return false;
  }
  ckpt.telemetry_state = telemetry->string;
  // Lenient: the member postdates the format, so checkpoints cut before
  // the timeline existed load as "no timeline state".
  const JsonValue* timeline = doc->find("timeline_state");
  ckpt.timeline_state =
      timeline != nullptr && timeline->is_string() ? timeline->string : "";
  *out = std::move(ckpt);
  return true;
}

bool write_checkpoint_file(const std::string& path,
                           const ServiceCheckpoint& ckpt,
                           std::string* error) {
  const std::string body = serialize_checkpoint(ckpt);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, "cannot open checkpoint tmp file");
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fflush(f) == 0 && ok;
#ifndef _WIN32
  // fsync before rename: the rename must never become visible ahead of
  // the bytes it names (the whole point of the tmp+rename dance).
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    set_error(error, "checkpoint tmp write failed");
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    set_error(error, "checkpoint rename failed");
    return false;
  }
  return true;
}

bool load_checkpoint_file(const std::string& path, ServiceCheckpoint* out,
                          std::string* error) {
  std::string body;
  return read_file(path, &body, error) && parse_checkpoint(body, out, error);
}

std::uint64_t checkpoint_digest(const ServiceCheckpoint& ckpt) {
  Fingerprint fp;
  fp.add(std::string(kCheckpointFormat));
  fp.add(ckpt.config_digest);
  fp.add(ckpt.slot);
  fp.add(aggregate_digest(ckpt.agg));
  fp.add(scheduler_digest(ckpt.sched));
  fp.add(static_cast<std::uint64_t>(ckpt.ledger_events.size()));
  for (const obs::FaultEvent& e : ckpt.ledger_events) {
    fp.add(static_cast<int>(e.kind)).add(e.device).add(e.item);
    fp.add(e.shot).add(e.attempt);
    fp.add(static_cast<std::uint64_t>(e.recovered ? 1 : 0));
    fp.add(e.detail);
  }
  fp.add(ckpt.telemetry_state);
  fp.add(ckpt.timeline_state);
  return fp.value();
}

}  // namespace edgestab::service
