#include "obs/timeline/timeline.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/json.h"
#include "obs/timeline/timeline_report.h"

namespace edgestab::obs {

namespace {

constexpr const char* kStateFormat = "edgestab-timeline-state-v1";

/// floor(log2(us)) bucket; <= 1us lands in bucket 0.
int latency_bucket(long long us) {
  if (us <= 1) return 0;
  return std::bit_width(static_cast<unsigned long long>(us)) - 1;
}

}  // namespace

const char* timeline_census_name(int state) {
  switch (state) {
    case 0: return "closed";
    case 1: return "open";
    case 2: return "half-open";
    case 3: return "sticky";
    default: return "unknown";
  }
}

void TimelineRecorder::set_epoch_slots(int slots) {
  epoch_slots_.store(std::max(1, slots), std::memory_order_relaxed);
}

void TimelineRecorder::set_trace_sample_ppm(long long ppm) {
  trace_ppm_.store(std::clamp<long long>(ppm, 0, 1000000),
                   std::memory_order_relaxed);
}

void TimelineRecorder::begin_run(std::vector<std::string> stages,
                                 std::vector<std::string> classes,
                                 std::vector<std::string> outcomes,
                                 int devices) {
  std::lock_guard<std::mutex> lock(mu_);
  stages_ = std::move(stages);
  classes_ = std::move(classes);
  outcomes_ = std::move(outcomes);
  device_state_.assign(std::max(0, devices), 0);
  slots_seen_ = 0;
  epochs_.clear();
  open_ = TimelineEpoch{};
  open_active_ = false;
  transitions_.clear();
  traces_.clear();
  traces_dropped_ = 0;
}

TimelineEpoch& TimelineRecorder::open_epoch() {
  if (!open_active_) {
    open_ = TimelineEpoch{};
    open_.index = slots_seen_ / epoch_slots();
    open_.outcomes.assign(outcomes_.size(), 0);
    open_.latency_hist.assign(classes_.size(), {});
    open_.queues.assign(stages_.size(), TimelineEpoch::QueueLane{});
    open_active_ = true;
  }
  return open_;
}

void TimelineRecorder::close_epoch() {
  open_.census.assign(kTimelineCensusStates, 0);
  for (int s : device_state_) {
    if (s >= 0 && s < kTimelineCensusStates) ++open_.census[s];
  }
  epochs_.push_back(std::move(open_));
  open_ = TimelineEpoch{};
  open_active_ = false;
}

void TimelineRecorder::record_shot(int cls, int outcome, long long latency_us,
                                   bool count_latency) {
  std::lock_guard<std::mutex> lock(mu_);
  TimelineEpoch& e = open_epoch();
  if (outcome >= 0 && outcome < static_cast<int>(e.outcomes.size())) {
    ++e.outcomes[outcome];
  }
  if (count_latency && cls >= 0 &&
      cls < static_cast<int>(e.latency_hist.size())) {
    ++e.latency_hist[cls][latency_bucket(latency_us)];
  }
}

void TimelineRecorder::record_transition(int device, int from, int to,
                                         std::string cause) {
  std::lock_guard<std::mutex> lock(mu_);
  if (device < 0 || device >= static_cast<int>(device_state_.size())) return;
  BreakerTransition t;
  t.device = device;
  t.epoch = slots_seen_ / epoch_slots();
  t.slot = slots_seen_;
  t.from = std::clamp(from, 0, kTimelineCensusStates - 1);
  t.to = std::clamp(to, 0, kTimelineCensusStates - 1);
  t.cause = std::move(cause);
  device_state_[device] = t.to;
  transitions_.push_back(std::move(t));
}

void TimelineRecorder::record_trace(ShotTrace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (traces_.size() >= kTraceCap) {
    ++traces_dropped_;
    return;
  }
  traces_.push_back(std::move(trace));
}

void TimelineRecorder::note_slot_folded(
    const std::vector<long long>& queue_depths) {
  std::lock_guard<std::mutex> lock(mu_);
  TimelineEpoch& e = open_epoch();
  const bool first = e.slots == 0;
  const std::size_t lanes = std::min(e.queues.size(), queue_depths.size());
  for (std::size_t i = 0; i < lanes; ++i) {
    TimelineEpoch::QueueLane& lane = e.queues[i];
    const long long d = queue_depths[i];
    if (first) {
      lane.min = lane.max = lane.sum = d;
    } else {
      lane.min = std::min(lane.min, d);
      lane.max = std::max(lane.max, d);
      lane.sum += d;
    }
  }
  ++e.slots;
  ++slots_seen_;
  if (slots_seen_ % epoch_slots() == 0) close_epoch();
}

TimelineDoc TimelineRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  TimelineDoc doc;
  doc.epoch_slots = epoch_slots();
  doc.trace_sample_ppm = trace_sample_ppm();
  doc.slots_total = slots_seen_;
  doc.stages = stages_;
  doc.classes = classes_;
  doc.outcomes = outcomes_;
  doc.epochs = epochs_;
  if (open_active_) {
    TimelineEpoch partial = open_;
    partial.census.assign(kTimelineCensusStates, 0);
    for (int s : device_state_) {
      if (s >= 0 && s < kTimelineCensusStates) ++partial.census[s];
    }
    doc.epochs.push_back(std::move(partial));
  }
  doc.transitions = transitions_;
  doc.traces = traces_;
  doc.traces_dropped = traces_dropped_;
  return doc;
}

std::uint64_t TimelineRecorder::digest() const {
  return timeline_digest(snapshot());
}

std::string TimelineRecorder::serialize_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.begin_object();
  w.key("format").value(kStateFormat);
  w.key("epoch_slots").value(epoch_slots());
  w.key("trace_sample_ppm").value(static_cast<std::int64_t>(trace_sample_ppm()));
  timeline_names_json(w, "stages", stages_);
  timeline_names_json(w, "classes", classes_);
  timeline_names_json(w, "outcomes", outcomes_);
  w.key("device_state").begin_array();
  for (int s : device_state_) w.value(s);
  w.end_array();
  w.key("slots_seen").value(static_cast<std::int64_t>(slots_seen_));
  w.key("traces_dropped").value(static_cast<std::int64_t>(traces_dropped_));
  w.key("epochs").begin_array();
  for (const TimelineEpoch& e : epochs_) timeline_epoch_json(w, e);
  w.end_array();
  w.key("open_active").value(open_active_);
  if (open_active_) {
    w.key("open");
    timeline_epoch_json(w, open_);
  }
  w.key("transitions").begin_array();
  for (const BreakerTransition& t : transitions_) timeline_transition_json(w, t);
  w.end_array();
  w.key("traces").begin_array();
  for (const ShotTrace& t : traces_) timeline_trace_json(w, t);
  w.end_array();
  w.end_object();
  return w.take();
}

bool TimelineRecorder::restore_state(const std::string& json) {
  std::optional<JsonValue> doc = parse_json(json);
  if (!doc || !doc->is_object()) return false;
  const JsonValue* format = doc->find("format");
  if (format == nullptr || format->string_or("") != kStateFormat) return false;

  // The epoch length and sample rate shape every bucket downstream; a
  // resume under different knobs would splice two incompatible series.
  int epoch_slots = 0;
  long long ppm = 0;
  if (!doc->read_int("epoch_slots", &epoch_slots) ||
      !doc->read_int("trace_sample_ppm", &ppm) ||
      epoch_slots != this->epoch_slots() || ppm != trace_sample_ppm()) {
    return false;
  }

  std::vector<std::string> stages;
  std::vector<std::string> classes;
  std::vector<std::string> outcomes;
  if (!parse_timeline_names(doc->find("stages"), &stages)) return false;
  if (!parse_timeline_names(doc->find("classes"), &classes)) return false;
  if (!parse_timeline_names(doc->find("outcomes"), &outcomes)) return false;

  const JsonValue* device_state = doc->find("device_state");
  if (device_state == nullptr || !device_state->is_array()) return false;
  std::vector<int> devices;
  devices.reserve(device_state->items.size());
  for (const JsonValue& s : device_state->items) {
    const std::optional<int> state = s.as_int<int>();
    if (!state) return false;
    devices.push_back(*state);
  }

  long long slots_seen = 0;
  long long dropped = 0;
  if (!doc->read_int("slots_seen", &slots_seen) ||
      !doc->read_int("traces_dropped", &dropped)) {
    return false;
  }

  std::vector<TimelineEpoch> epochs;
  std::vector<BreakerTransition> transitions;
  std::vector<ShotTrace> traces;
  if (!parse_timeline_list(doc->find("epochs"), parse_timeline_epoch,
                           &epochs) ||
      !parse_timeline_list(doc->find("transitions"),
                           parse_timeline_transition, &transitions) ||
      !parse_timeline_list(doc->find("traces"), parse_timeline_trace,
                           &traces)) {
    return false;
  }

  const JsonValue* open_active = doc->find("open_active");
  if (open_active == nullptr || !open_active->is_bool()) return false;
  TimelineEpoch open;
  if (open_active->boolean) {
    const JsonValue* open_v = doc->find("open");
    if (open_v == nullptr || !parse_timeline_epoch(*open_v, &open)) {
      return false;
    }
  }


  std::lock_guard<std::mutex> lock(mu_);
  // The name tables and the fleet size begin_run registered shape every
  // lane and index in the series; a state from a run with different ones
  // would splice stale names and lanes into this run.
  if (stages != stages_ || classes != classes_ || outcomes != outcomes_ ||
      devices.size() != device_state_.size()) {
    return false;
  }
  device_state_ = std::move(devices);
  slots_seen_ = slots_seen;
  traces_dropped_ = dropped;
  epochs_ = std::move(epochs);
  open_active_ = open_active->boolean;
  open_ = open_active_ ? std::move(open) : TimelineEpoch{};
  transitions_ = std::move(transitions);
  traces_ = std::move(traces);
  return true;
}

bool TimelineRecorder::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.empty() && !open_active_ && transitions_.empty() &&
         slots_seen_ == 0;
}

}  // namespace edgestab::obs
