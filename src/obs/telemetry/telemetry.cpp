#include "obs/telemetry/telemetry.h"

#include <algorithm>
#include <cmath>

#include "obs/json.h"
#include "util/hashing.h"

namespace edgestab::obs {

namespace {

// Milli-dB / microsecond quantization: quantize ONCE at the record
// site, fold integers forever after. llround is exact for every value
// the rig produces and keeps the fold commutative.
long long quantize_mdb(double db) {
  if (!std::isfinite(db)) return 0;
  return std::llround(db * 1e3);
}

long long quantize_us(double ms) {
  if (!std::isfinite(ms) || ms < 0.0) return 0;
  return std::llround(ms * 1e3);
}

// Nearest-rank percentile over an already-sorted sample vector.
// Deterministic for a deterministic multiset; returns 0 when empty.
double percentile_ms(const std::vector<long long>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto n = static_cast<long long>(sorted_us.size());
  long long rank = static_cast<long long>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp(rank, 1LL, n);
  return static_cast<double>(sorted_us[static_cast<std::size_t>(rank - 1)]) / 1e3;
}

double safe_ratio(long long num, long long den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

const char* health_status_name(HealthStatus status) {
  switch (status) {
    case HealthStatus::kHealthy: return "healthy";
    case HealthStatus::kDegraded: return "degraded";
    case HealthStatus::kQuarantined: return "quarantined";
  }
  return "unknown";
}

void DeviceHealthRegistry::set_window_items(int items) {
  std::lock_guard<std::mutex> lock(mu_);
  window_items_ = std::max(1, items);
}

int DeviceHealthRegistry::window_items() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_items_;
}

void DeviceHealthRegistry::set_device_label(int device, const std::string& label) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  devices_[device].label = label;
}

DeviceHealthRegistry::Bucket& DeviceHealthRegistry::bucket(int device, int item) {
  // Caller holds mu_. Items below zero fold into window 0 rather than
  // producing negative keys.
  const int window = item > 0 ? item / window_items_ : 0;
  return devices_[device].windows[window];
}

void DeviceHealthRegistry::record_observation(int device, int item, bool correct,
                                              bool flipped) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = bucket(device, item);
  ++b.observations;
  if (!correct) ++b.incorrect_items;
  if (flipped) ++b.flipped_items;
}

void DeviceHealthRegistry::record_shot(int device, int item, int /*shot*/,
                                       int attempts, bool lost, double latency_ms,
                                       int fault_events) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = bucket(device, item);
  ++b.shots;
  if (lost) ++b.shots_lost;
  if (attempts > 1) b.retries += attempts - 1;
  b.fault_events += std::max(0, fault_events);
  b.latency_us.push_back(quantize_us(latency_ms));
  if (lost && !b.live_loss_flagged && b.shots_lost >= kLiveLossAlertShots) {
    b.live_loss_flagged = true;
    live_alerts_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DeviceHealthRegistry::record_capture_loss(int device, int item, int /*shot*/,
                                               int retries) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = bucket(device, item);
  ++b.shots;
  ++b.shots_lost;
  b.retries += std::max(0, retries);
  if (!b.live_loss_flagged && b.shots_lost >= kLiveLossAlertShots) {
    b.live_loss_flagged = true;
    live_alerts_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DeviceHealthRegistry::record_retries(int device, int item, int count) {
  if (!enabled() || count <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  bucket(device, item).retries += count;
}

void DeviceHealthRegistry::record_stage_drift(int device, int item, double psnr_db) {
  if (!enabled()) return;
  const long long mdb = quantize_mdb(psnr_db);
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = bucket(device, item);
  if (b.drift_comparisons == 0 || mdb < b.drift_psnr_mdb_min) {
    b.drift_psnr_mdb_min = mdb;
  }
  ++b.drift_comparisons;
  b.drift_psnr_mdb_sum += mdb;
}

void DeviceHealthRegistry::record_quarantine(int device, int item) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  Bucket& b = bucket(device, item);
  if (!b.quarantined || item < b.quarantine_item) {
    b.quarantined = true;
    b.quarantine_item = item;
    live_alerts_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DeviceHealthRegistry::record_coverage(int device, long long usable,
                                           long long total) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  DeviceState& state = devices_[device];
  if (state.coverage_slots < 0) {
    state.coverage_usable = 0;
    state.coverage_slots = 0;
  }
  state.coverage_usable += usable;
  state.coverage_slots += total;
}

FleetHealthSnapshot DeviceHealthRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetHealthSnapshot snap;
  snap.window_items = window_items_;
  snap.devices.reserve(devices_.size());
  for (const auto& [device, state] : devices_) {
    DeviceHealth health;
    health.device = device;
    health.label = state.label.empty() ? "device-" + std::to_string(device)
                                       : state.label;
    health.coverage_usable = state.coverage_usable;
    health.coverage_slots = state.coverage_slots;

    std::vector<long long> all_latency;
    long long drift_mdb_sum = 0;
    for (const auto& [window, b] : state.windows) {
      DeviceWindowStats w;
      w.window = window;
      w.item_lo = window * window_items_;
      w.item_hi = w.item_lo + window_items_;
      w.observations = b.observations;
      w.flipped_items = b.flipped_items;
      w.incorrect_items = b.incorrect_items;
      w.flip_rate = safe_ratio(b.flipped_items, b.observations);
      w.shots = b.shots;
      w.shots_lost = b.shots_lost;
      w.retries = b.retries;
      w.fault_events = b.fault_events;
      w.loss_rate = safe_ratio(b.shots_lost, b.shots);
      w.retry_rate = safe_ratio(b.retries, b.shots);

      std::vector<long long> sorted = b.latency_us;
      std::sort(sorted.begin(), sorted.end());
      w.latency_p50_ms = percentile_ms(sorted, 0.50);
      w.latency_p99_ms = percentile_ms(sorted, 0.99);
      w.latency_max_ms =
          sorted.empty() ? 0.0 : static_cast<double>(sorted.back()) / 1e3;
      all_latency.insert(all_latency.end(), sorted.begin(), sorted.end());

      w.drift_comparisons = b.drift_comparisons;
      if (b.drift_comparisons > 0) {
        w.drift_psnr_db_mean =
            static_cast<double>(b.drift_psnr_mdb_sum) /
            (1e3 * static_cast<double>(b.drift_comparisons));
        w.drift_psnr_db_min = static_cast<double>(b.drift_psnr_mdb_min) / 1e3;
      }
      w.quarantined = b.quarantined;
      w.quarantine_item = b.quarantine_item;

      health.observations += b.observations;
      health.flipped_items += b.flipped_items;
      health.incorrect_items += b.incorrect_items;
      health.shots += b.shots;
      health.shots_lost += b.shots_lost;
      health.retries += b.retries;
      health.fault_events += b.fault_events;
      health.drift_comparisons += b.drift_comparisons;
      drift_mdb_sum += b.drift_psnr_mdb_sum;
      health.windows.push_back(std::move(w));
    }
    health.flip_rate = safe_ratio(health.flipped_items, health.observations);
    std::sort(all_latency.begin(), all_latency.end());
    health.latency_p50_ms = percentile_ms(all_latency, 0.50);
    health.latency_p99_ms = percentile_ms(all_latency, 0.99);
    if (health.drift_comparisons > 0) {
      health.drift_psnr_db_mean =
          static_cast<double>(drift_mdb_sum) /
          (1e3 * static_cast<double>(health.drift_comparisons));
    }
    snap.devices.push_back(std::move(health));
  }
  return snap;
}

std::uint64_t DeviceHealthRegistry::digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  Fingerprint fp;
  const auto addll = [&fp](long long v) {
    fp.add(static_cast<std::int64_t>(v));
  };
  fp.add("edgestab-telemetry-v1");
  fp.add(window_items_);
  fp.add(static_cast<std::uint64_t>(devices_.size()));
  for (const auto& [device, state] : devices_) {
    fp.add(device);
    fp.add(state.label);
    addll(state.coverage_usable);
    addll(state.coverage_slots);
    fp.add(static_cast<std::uint64_t>(state.windows.size()));
    for (const auto& [window, b] : state.windows) {
      fp.add(window);
      addll(b.observations);
      addll(b.flipped_items);
      addll(b.incorrect_items);
      addll(b.shots);
      addll(b.shots_lost);
      addll(b.retries);
      addll(b.fault_events);
      std::vector<long long> sorted = b.latency_us;
      std::sort(sorted.begin(), sorted.end());
      for (long long us : sorted) addll(us);
      addll(b.drift_comparisons);
      addll(b.drift_psnr_mdb_sum);
      addll(b.drift_comparisons > 0 ? b.drift_psnr_mdb_min : 0LL);
      fp.add(b.quarantined ? 1 : 0);
      fp.add(b.quarantine_item);
    }
  }
  return fp.value();
}

void DeviceHealthRegistry::merge_bucket(Bucket& into, const Bucket& from) {
  into.observations += from.observations;
  into.flipped_items += from.flipped_items;
  into.incorrect_items += from.incorrect_items;
  into.shots += from.shots;
  into.shots_lost += from.shots_lost;
  into.retries += from.retries;
  into.fault_events += from.fault_events;
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(),
                         from.latency_us.end());
  if (from.drift_comparisons > 0) {
    if (into.drift_comparisons == 0 ||
        from.drift_psnr_mdb_min < into.drift_psnr_mdb_min) {
      into.drift_psnr_mdb_min = from.drift_psnr_mdb_min;
    }
    into.drift_comparisons += from.drift_comparisons;
    into.drift_psnr_mdb_sum += from.drift_psnr_mdb_sum;
  }
  if (from.quarantined &&
      (!into.quarantined || from.quarantine_item < into.quarantine_item)) {
    into.quarantined = true;
    into.quarantine_item = from.quarantine_item;
  }
}

void DeviceHealthRegistry::merge(const DeviceHealthRegistry& other) {
  if (&other == this) return;
  // Copy the source under its own lock, then fold under ours —
  // the FaultLedger merge discipline, avoiding lock-order cycles.
  std::map<int, DeviceState> theirs;
  std::int64_t their_live = 0;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    theirs = other.devices_;
    their_live = other.live_alerts_.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [device, state] : theirs) {
    DeviceState& mine = devices_[device];
    if (mine.label.empty()) mine.label = state.label;
    if (state.coverage_slots >= 0) {
      if (mine.coverage_slots < 0) {
        mine.coverage_usable = 0;
        mine.coverage_slots = 0;
      }
      mine.coverage_usable += state.coverage_usable;
      mine.coverage_slots += state.coverage_slots;
    }
    for (const auto& [window, b] : state.windows) {
      merge_bucket(mine.windows[window], b);
    }
  }
  live_alerts_.fetch_add(their_live, std::memory_order_relaxed);
}

std::string DeviceHealthRegistry::serialize_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.begin_object();
  w.key("format").value("edgestab-telemetry-state-v1");
  w.key("window_items").value(window_items_);
  w.key("live_alerts")
      .value(static_cast<std::int64_t>(
          live_alerts_.load(std::memory_order_relaxed)));
  w.key("devices").begin_array();
  for (const auto& [device, state] : devices_) {
    w.begin_object();
    w.key("device").value(device);
    w.key("label").value(state.label);
    w.key("coverage_usable")
        .value(static_cast<std::int64_t>(state.coverage_usable));
    w.key("coverage_slots")
        .value(static_cast<std::int64_t>(state.coverage_slots));
    w.key("windows").begin_array();
    for (const auto& [window, b] : state.windows) {
      w.begin_object();
      w.key("window").value(window);
      w.key("observations").value(static_cast<std::int64_t>(b.observations));
      w.key("flipped_items").value(static_cast<std::int64_t>(b.flipped_items));
      w.key("incorrect_items")
          .value(static_cast<std::int64_t>(b.incorrect_items));
      w.key("shots").value(static_cast<std::int64_t>(b.shots));
      w.key("shots_lost").value(static_cast<std::int64_t>(b.shots_lost));
      w.key("retries").value(static_cast<std::int64_t>(b.retries));
      w.key("fault_events").value(static_cast<std::int64_t>(b.fault_events));
      // Canonically sorted: the multiset is order-free (every reader
      // sorts), so sorted bytes keep the document itself digestable.
      std::vector<long long> sorted = b.latency_us;
      std::sort(sorted.begin(), sorted.end());
      w.key("latency_us").begin_array();
      for (long long us : sorted) w.value(static_cast<std::int64_t>(us));
      w.end_array();
      w.key("drift_comparisons")
          .value(static_cast<std::int64_t>(b.drift_comparisons));
      w.key("drift_psnr_mdb_sum")
          .value(static_cast<std::int64_t>(b.drift_psnr_mdb_sum));
      w.key("drift_psnr_mdb_min")
          .value(static_cast<std::int64_t>(b.drift_psnr_mdb_min));
      w.key("quarantined").value(b.quarantined);
      w.key("quarantine_item").value(b.quarantine_item);
      w.key("live_loss_flagged").value(b.live_loss_flagged);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool DeviceHealthRegistry::restore_state(const std::string& json) {
  // Parse into locals and commit under the lock only once the whole
  // document checked out, so a refused document changes nothing.
  auto doc = parse_json(json);
  if (!doc.has_value() || !doc->is_object()) return false;
  const JsonValue* format = doc->find("format");
  if (format == nullptr ||
      format->string_or("") != "edgestab-telemetry-state-v1")
    return false;
  int window_items = 0;
  long long live_alerts = 0;
  if (!doc->read_int("window_items", &window_items) || window_items < 1 ||
      !doc->read_int("live_alerts", &live_alerts))
    return false;
  const JsonValue* devices = doc->find("devices");
  if (devices == nullptr || !devices->is_array()) return false;
  std::map<int, DeviceState> restored;
  for (const JsonValue& dev : devices->items) {
    int device = 0;
    if (!dev.is_object() || !dev.read_int("device", &device)) return false;
    auto [slot, fresh_device] = restored.try_emplace(device);
    if (!fresh_device) return false;  // duplicate device entry
    DeviceState& state = slot->second;
    if (const JsonValue* label = dev.find("label"))
      state.label = label->string_or("");
    if (!dev.read_int("coverage_usable", &state.coverage_usable) ||
        !dev.read_int("coverage_slots", &state.coverage_slots))
      return false;
    const JsonValue* windows = dev.find("windows");
    if (windows == nullptr || !windows->is_array()) return false;
    for (const JsonValue& win : windows->items) {
      int window = 0;
      if (!win.is_object() || !win.read_int("window", &window)) return false;
      auto [cell, fresh_window] = state.windows.try_emplace(window);
      if (!fresh_window) return false;  // duplicate window entry
      Bucket& b = cell->second;
      if (!win.read_ints<long long>(
              {{"observations", &b.observations},
               {"flipped_items", &b.flipped_items},
               {"incorrect_items", &b.incorrect_items},
               {"shots", &b.shots},
               {"shots_lost", &b.shots_lost},
               {"retries", &b.retries},
               {"fault_events", &b.fault_events},
               {"drift_comparisons", &b.drift_comparisons},
               {"drift_psnr_mdb_sum", &b.drift_psnr_mdb_sum},
               {"drift_psnr_mdb_min", &b.drift_psnr_mdb_min}}) ||
          !win.read_int("quarantine_item", &b.quarantine_item))
        return false;
      const JsonValue* lat = win.find("latency_us");
      if (lat == nullptr || !lat->is_array()) return false;
      b.latency_us.reserve(lat->items.size());
      for (const JsonValue& us : lat->items) {
        const std::optional<long long> v = us.as_int();
        if (!v) return false;
        b.latency_us.push_back(*v);
      }
      if (const JsonValue* q = win.find("quarantined"))
        b.quarantined = q->is_bool() && q->boolean;
      if (const JsonValue* f = win.find("live_loss_flagged"))
        b.live_loss_flagged = f->is_bool() && f->boolean;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  window_items_ = window_items;
  devices_ = std::move(restored);
  live_alerts_.store(live_alerts, std::memory_order_relaxed);
  return true;
}

bool DeviceHealthRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return devices_.empty();
}

}  // namespace edgestab::obs
