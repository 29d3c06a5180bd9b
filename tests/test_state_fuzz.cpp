// Deterministic fuzzing of the parsers that read run state back from
// disk: the telemetry registry's and the timeline recorder's
// serialize_state() documents and the service checkpoint, plus
// regressions for the profile and run-archive readers. Every
// mutated document — bit flips, truncations, out-of-range numbers —
// must be either refused, leaving the live object's digest unchanged,
// or restored whole, so the restored object round-trips to itself; a
// checkpoint that parses also goes through resume's accounting check
// (service/state.h), whose overflow-checked sums must decide any count
// a mutant carries. The corpus is seed-derived, so a failing mutation
// reproduces from its (document, round) index; the asan_smoke ctest
// reruns this binary under AddressSanitizer + UBSan (with
// float-cast-overflow), which turns a cast of an out-of-range double,
// or an overflowing signed sum, into a hard failure.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/baseline.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/telemetry/telemetry.h"
#include "obs/timeline/timeline.h"
#include "service/checkpoint.h"
#include "service/state.h"
#include "util/rng.h"

namespace edgestab {
namespace {

using obs::DeviceHealthRegistry;
using obs::TimelineRecorder;
using service::ServiceCheckpoint;

constexpr std::uint64_t kFuzzSeed = 0x57A7E;
constexpr int kRounds = 300;

/// Numbers a corrupt or hostile document may carry in an integer slot.
const char* const kHostileNumbers[] = {
    "1e300", "-1e300", "2.5", "-0.5", "9223372036854775808",
    "-9223372036854775809", "4294967296", "-2147483649", "1e19"};

/// Feed a registry `shots` synthetic shots over four devices.
void feed_registry(DeviceHealthRegistry& registry, int shots,
                   std::uint64_t seed) {
  registry.set_enabled(true);
  registry.set_window_items(4);
  Pcg32 rng(seed);
  for (int d = 0; d < 4; ++d)
    registry.set_device_label(d, "phone-" + std::to_string(d));
  for (int i = 0; i < shots; ++i) {
    const int device = i % 4;
    const int item = i / 4;
    registry.record_shot(device, item, 0, 1 + rng.uniform_int(3),
                         rng.uniform() < 0.2, rng.uniform() * 40.0,
                         rng.uniform_int(2));
    registry.record_observation(device, item, rng.uniform() < 0.7,
                                rng.uniform() < 0.2);
    registry.record_stage_drift(device, item, 20.0 + rng.uniform() * 20.0);
    if (rng.uniform() < 0.05) registry.record_quarantine(device, item);
  }
  registry.record_coverage(1, 7, 9);
}

/// Register the run's name tables on a recorder (restore_state needs
/// the live tables to match the document's).
void begin_timeline(TimelineRecorder& recorder) {
  recorder.set_epoch_slots(5);
  recorder.begin_run({"develop", "inference"}, {"flagship", "budget"},
                     {"ok", "shed", "lost"}, 4);
}

/// Feed a recorder `slots` synthetic folded slots of four shots each.
void feed_timeline(TimelineRecorder& recorder, int slots,
                   std::uint64_t seed) {
  begin_timeline(recorder);
  Pcg32 rng(seed);
  for (int slot = 0; slot < slots; ++slot) {
    for (int d = 0; d < 4; ++d) {
      const int outcome = rng.uniform_int(3);
      recorder.record_shot(d % 2, outcome, rng.uniform_int(50000),
                           outcome == 0);
      if (rng.uniform() < 0.1)
        recorder.record_transition(d, 0, 1 + rng.uniform_int(3), "timeout");
      if (rng.uniform() < 0.2) {
        obs::ShotTrace trace;
        trace.g = slot * 4 + d;
        trace.slot = slot;
        trace.device = d;
        trace.cls = d % 2;
        trace.outcome = outcome;
        trace.service_us = rng.uniform_int(9000);
        trace.attempts.push_back({100, trace.service_us});
        recorder.record_trace(std::move(trace));
      }
    }
    recorder.note_slot_folded({rng.uniform_int(64), rng.uniform_int(64)});
  }
}

constexpr int kSampleDevices = 4;

/// A checkpoint whose aggregate keeps every accounting identity: 14
/// slots of 4 devices, two ledger receipts.
ServiceCheckpoint sample_checkpoint() {
  ServiceCheckpoint ckpt;
  ckpt.config_digest = 0x1234abcd5678ef00ull;
  ckpt.slot = 14;
  ckpt.agg.slots_folded = 14;
  ckpt.agg.shots_folded = 56;
  ckpt.agg.ok = 40;
  ckpt.agg.correct = 31;
  ckpt.agg.shed = 6;
  ckpt.agg.timeouts = 10;
  ckpt.agg.fault_events = 2;
  ckpt.agg.retries = 1;
  ckpt.agg.slots_fully_covered = 5;
  ckpt.agg.slots_degraded = 9;
  ckpt.agg.verdicts = {12, 4, 6, 2};
  ckpt.agg.latency_hist_100us = {{3, 12}, {7, 20}, {40, 8}};
  ckpt.agg.devices.resize(kSampleDevices);
  const long long rows[kSampleDevices][4] = {
      {10, 8, 1, 3}, {10, 8, 2, 2}, {9, 7, 2, 3}, {11, 8, 1, 2}};
  for (int d = 0; d < kSampleDevices; ++d) {
    service::DeviceAggregate& row =
        ckpt.agg.devices[static_cast<std::size_t>(d)];
    row.ok = rows[d][0];
    row.correct = rows[d][1];
    row.shed = rows[d][2];
    row.timeouts = rows[d][3];
  }
  ckpt.agg.devices[2].latency_us_sum = 123456;
  ckpt.sched.next_shot = 56;
  ckpt.sched.devices.resize(4);
  ckpt.sched.devices[1].breaker.state = 1;
  ckpt.sched.devices[1].breaker.opens = 2;
  ckpt.sched.devices[3].backlog_us = 250000;
  ckpt.ledger_events.push_back(
      {obs::FaultEventKind::kDeadlineTimeout, 2, 5, 0, 1, false, 12.5});
  ckpt.ledger_events.push_back(
      {obs::FaultEventKind::kRetry, 1, 3, 0, 1, true, 10.0});
  DeviceHealthRegistry registry;
  feed_registry(registry, 24, 7);
  ckpt.telemetry_state = registry.serialize_state();
  return ckpt;
}

/// One seeded mutation of `doc`: bit flips, a truncation, or a numeric
/// token swapped for a hostile number.
std::string mutate(const std::string& doc, Pcg32& rng) {
  std::string out = doc;
  switch (rng.uniform_int(3)) {
    case 0: {
      const int flips = 1 + rng.uniform_int(4);
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = rng.uniform_int(
            static_cast<std::uint32_t>(out.size()));
        out[pos] = static_cast<char>(out[pos] ^ (1 << rng.uniform_int(8)));
      }
      break;
    }
    case 1:
      out.resize(rng.uniform_int(static_cast<std::uint32_t>(out.size())));
      break;
    default: {
      // Swap the first number at or after a random offset.
      const auto digit = [&out](std::size_t i) {
        return std::isdigit(static_cast<unsigned char>(out[i])) != 0;
      };
      std::size_t begin =
          rng.uniform_int(static_cast<std::uint32_t>(out.size()));
      while (begin < out.size() && !digit(begin)) ++begin;
      if (begin == out.size()) break;
      while (begin > 0 && (digit(begin - 1) || out[begin - 1] == '-'))
        --begin;
      std::size_t end = begin + 1;
      while (end < out.size() && digit(end)) ++end;
      const std::uint32_t n = std::size(kHostileNumbers);
      out.replace(begin, end - begin, kHostileNumbers[rng.uniform_int(n)]);
    }
  }
  return out;
}

// ---- Regressions ------------------------------------------------------------

TEST(StateRestore, TelemetryRefusesOutOfRangeIntegers) {
  DeviceHealthRegistry source;
  feed_registry(source, 16, 1);
  const std::string doc = source.serialize_state();
  // Shadow the first occurrence of each field with a hostile value
  // (read_int reads the first member of a name).
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"observations", "1e300"},
        {"device", "1e300"},
        {"shots", "2.5"}}) {
    const std::string from = "\"" + key + "\":";
    std::string bad = doc;
    bad.replace(bad.find(from), from.size(), from + value + ",\"x\":");
    DeviceHealthRegistry live;
    feed_registry(live, 8, 2);
    const std::uint64_t before = live.digest();
    EXPECT_FALSE(live.restore_state(bad)) << key;
    EXPECT_EQ(live.digest(), before) << key;
  }
}

TEST(StateRestore, TelemetryRefusedDocumentLeavesRegistryIntact) {
  // A well-formed first device entry, a 9-item window, and a second
  // device entry that is not an object.
  DeviceHealthRegistry source;
  source.set_enabled(true);
  source.set_window_items(9);
  source.record_shot(0, 0, 0, 1, false, 1.0, 0);
  std::string doc = source.serialize_state();
  ASSERT_EQ(doc.substr(doc.size() - 2), "]}");
  doc.insert(doc.size() - 2, ",7");
  DeviceHealthRegistry live;
  feed_registry(live, 8, 2);
  const std::uint64_t before = live.digest();
  EXPECT_FALSE(live.restore_state(doc));
  EXPECT_EQ(live.digest(), before);
  EXPECT_EQ(live.window_items(), 4);
  EXPECT_TRUE(live.enabled());
}

TEST(StateRestore, CheckpointRefusesNonIntegerCounts) {
  const std::string doc = service::serialize_checkpoint(sample_checkpoint());
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"ok\":40", "\"ok\":40.5"},
        {"\"slot\":14", "\"slot\":1e300"},
        {"\"state\":1", "\"state\":4294967296"}}) {
    std::string bad = doc;
    ASSERT_NE(bad.find(from), std::string::npos) << from;
    bad.replace(bad.find(from), from.size(), to);
    ServiceCheckpoint out;
    std::string error;
    EXPECT_FALSE(service::parse_checkpoint(bad, &out, &error)) << to;
  }
}

/// Unsigned counters a corrupt or hostile document may carry.
const char* const kHostileUnsigned[] = {"1e300", "-1", "1.5"};

/// `doc` with its first `"key":<from>` replaced by `"key":<to>`.
std::string with_member(std::string doc, const std::string& key,
                        const std::string& from, const std::string& to) {
  const std::string old = "\"" + key + "\":" + from;
  const std::size_t at = doc.find(old);
  EXPECT_NE(at, std::string::npos) << old;
  if (at != std::string::npos)
    doc.replace(at, old.size(), "\"" + key + "\":" + to);
  return doc;
}

TEST(StateRestore, JsonUnsignedReadRefusesWhatDoesNotFit) {
  for (const char* text : {"1e300", "-1", "1.5", "18446744073709551616",
                           "-1e300", "0.5"})
    EXPECT_FALSE(obs::parse_json(text)->as_uint<std::uint64_t>()) << text;
  EXPECT_FALSE(obs::parse_json("4294967296")->as_uint<std::uint32_t>());
  EXPECT_FALSE(obs::parse_json("\"7\"")->as_uint<std::uint64_t>());
  EXPECT_EQ(obs::parse_json("0")->as_uint<std::uint64_t>(), 0u);
  EXPECT_EQ(obs::parse_json("4294967295")->as_uint<std::uint32_t>(),
            4294967295u);
  EXPECT_EQ(obs::parse_json("9007199254740992")->as_uint<std::uint64_t>(),
            9007199254740992u);
}

TEST(StateRestore, ProfileRefusesNonUnsignedCounts) {
  const std::string doc =
      R"({"schema":"edgestab-profile-v1","totals":{"alloc_count":7,)"
      R"("sites":[{"site":"tensor","alloc_bytes":8}]},)"
      R"("nodes":[{"path":"a","depth":0,"calls":3,"free_bytes":4}]})";
  obs::ProfileDoc parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_profile(*obs::parse_json(doc), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.totals.alloc_count, 7u);
  EXPECT_EQ(parsed.totals.site_alloc_bytes[0], 8u);
  ASSERT_EQ(parsed.nodes.size(), 1u);
  EXPECT_EQ(parsed.nodes[0].calls, 3u);
  for (const char* value : kHostileUnsigned) {
    for (const auto& [key, from] :
         {std::pair<std::string, std::string>{"alloc_count", "7"},
          {"alloc_bytes", "8"},
          {"calls", "3"},
          {"free_bytes", "4"},
          {"depth", "0"}}) {
      const std::string bad = with_member(doc, key, from, value);
      EXPECT_FALSE(obs::parse_profile(*obs::parse_json(bad), &parsed, &error))
          << key << ":" << value;
    }
  }
}

TEST(StateRestore, RunRecordAndBaselineRefuseHostileSeed) {
  obs::RunRecord record;
  record.bench = "fig3";
  record.has_seed = true;
  record.seed = 17;
  const std::string run = obs::run_record_json(record);
  obs::Baseline baseline = obs::baseline_from_record(record);
  const std::string bench = obs::baseline_json(baseline);
  obs::RunRecord parsed_run;
  obs::Baseline parsed_baseline;
  std::string error;
  ASSERT_TRUE(obs::parse_run_record(*obs::parse_json(run), &parsed_run,
                                    &error))
      << error;
  EXPECT_EQ(parsed_run.seed, 17u);
  ASSERT_TRUE(obs::parse_baseline(*obs::parse_json(bench), &parsed_baseline,
                                  &error))
      << error;
  EXPECT_EQ(parsed_baseline.seed, 17u);
  // The seed is written as a hex string; a hostile number or string in
  // its place is refused.
  const std::string written = "\"0000000000000011\"";
  std::vector<std::string> hostile(std::begin(kHostileUnsigned),
                                   std::end(kHostileUnsigned));
  for (const char* text : {"\"\"", "\"-1\"", "\"0x11\"", "\" 11\"",
                           "\"00000000000000011\"", "\"1g\"",
                           "9007199254740993"})
    hostile.emplace_back(text);
  for (const std::string& value : hostile) {
    EXPECT_FALSE(obs::parse_run_record(
        *obs::parse_json(with_member(run, "seed", written, value)),
        &parsed_run, &error))
        << value;
    EXPECT_FALSE(obs::parse_baseline(
        *obs::parse_json(with_member(bench, "seed", written, value)),
        &parsed_baseline, &error))
        << value;
  }
}

TEST(StateRestore, RunRecordAndBaselineSeedRoundTripsEveryU64) {
  // A JSON number is a double: 2^53 + 1 would come back as 2^53 and
  // 2^64 - 1 as 2^64, which no u64 holds.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{4242}, (std::uint64_t{1} << 53) + 1,
        ~std::uint64_t{0}}) {
    obs::RunRecord record;
    record.bench = "soak";
    record.has_seed = true;
    record.seed = seed;
    obs::RunRecord parsed_run;
    obs::Baseline parsed_baseline;
    std::string error;
    ASSERT_TRUE(obs::parse_run_record(
        *obs::parse_json(obs::run_record_json(record)), &parsed_run, &error))
        << error;
    EXPECT_EQ(parsed_run.seed, seed);
    ASSERT_TRUE(obs::parse_baseline(
        *obs::parse_json(
            obs::baseline_json(obs::baseline_from_record(record))),
        &parsed_baseline, &error))
        << error;
    EXPECT_EQ(parsed_baseline.seed, seed);
  }
  // Documents written before the hex form still read when exact.
  obs::RunRecord record;
  record.bench = "soak";
  record.has_seed = true;
  record.seed = 17;
  const std::string legacy = with_member(obs::run_record_json(record), "seed",
                                         "\"0000000000000011\"", "4242");
  obs::RunRecord parsed;
  std::string error;
  ASSERT_TRUE(obs::parse_run_record(*obs::parse_json(legacy), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.seed, 4242u);
}

// ---- Fuzz -------------------------------------------------------------------

TEST(StateFuzz, TelemetryStateRefusedOrRestoredWhole) {
  DeviceHealthRegistry source;
  feed_registry(source, 48, 3);
  const std::string doc = source.serialize_state();
  Pcg32 rng(kFuzzSeed, 1);
  int refused = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string bad = mutate(doc, rng);
    DeviceHealthRegistry live;
    feed_registry(live, 12, 4);
    const std::uint64_t before = live.digest();
    if (!live.restore_state(bad)) {
      ++refused;
      EXPECT_EQ(live.digest(), before) << "round " << round;
      continue;
    }
    DeviceHealthRegistry again;
    ASSERT_TRUE(again.restore_state(live.serialize_state())) << round;
    EXPECT_EQ(again.digest(), live.digest()) << "round " << round;
  }
  EXPECT_GT(refused, kRounds / 4);
}

TEST(StateFuzz, TimelineStateRefusedOrRestoredWhole) {
  TimelineRecorder source;
  feed_timeline(source, 23, 5);
  const std::string doc = source.serialize_state();
  Pcg32 rng(kFuzzSeed, 2);
  int refused = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string bad = mutate(doc, rng);
    TimelineRecorder live;
    feed_timeline(live, 6, 6);
    const std::uint64_t before = live.digest();
    if (!live.restore_state(bad)) {
      ++refused;
      EXPECT_EQ(live.digest(), before) << "round " << round;
      continue;
    }
    TimelineRecorder again;
    begin_timeline(again);
    ASSERT_TRUE(again.restore_state(live.serialize_state())) << round;
    EXPECT_EQ(again.digest(), live.digest()) << "round " << round;
  }
  EXPECT_GT(refused, kRounds / 4);
}

TEST(StateFuzz, CheckpointRefusedOrParsedWhole) {
  const ServiceCheckpoint sample = sample_checkpoint();
  const std::string doc = service::serialize_checkpoint(sample);
  Pcg32 rng(kFuzzSeed, 3);
  int refused = 0;
  int consistent = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::string bad = mutate(doc, rng);
    ServiceCheckpoint out = sample;
    std::string error;
    if (!service::parse_checkpoint(bad, &out, &error)) {
      ++refused;
      EXPECT_EQ(service::checkpoint_digest(out),
                service::checkpoint_digest(sample))
          << "round " << round;
      continue;
    }
    ServiceCheckpoint again;
    ASSERT_TRUE(service::parse_checkpoint(service::serialize_checkpoint(out),
                                          &again, &error))
        << round << ": " << error;
    EXPECT_EQ(service::checkpoint_digest(again),
              service::checkpoint_digest(out))
        << "round " << round;
    // Resume's accounting check runs on whatever parsed: it must decide
    // without overflowing, whatever counts the mutant carries.
    if (service::aggregate_inconsistency(
            out.agg, out.slot, kSampleDevices,
            static_cast<long long>(out.ledger_events.size()))
            .empty())
      ++consistent;
  }
  EXPECT_GT(refused, kRounds / 4);
  EXPECT_GT(consistent, 0);
}

TEST(StateRestore, CheckpointFileRefusesMissingPathAndDirectory) {
  const std::string dir = testing::TempDir() + "edgestab_ckpt_dir";
  std::filesystem::create_directories(dir);
  for (const std::string& path :
       {testing::TempDir() + "edgestab_no_such.ckpt.json", dir}) {
    ServiceCheckpoint out;
    std::string error;
    EXPECT_FALSE(service::load_checkpoint_file(path, &out, &error)) << path;
    EXPECT_NE(error.find(path), std::string::npos) << error;
  }
  std::filesystem::remove(dir);
}

// ---- The aggregate's accounting --------------------------------------------

std::string inconsistency(const ServiceCheckpoint& ckpt) {
  return service::aggregate_inconsistency(
      ckpt.agg, ckpt.slot, kSampleDevices,
      static_cast<long long>(ckpt.ledger_events.size()));
}

TEST(AggregateCheck, SampleKeepsEveryIdentity) {
  EXPECT_EQ(inconsistency(sample_checkpoint()), "");
}

TEST(AggregateCheck, NamesEveryBrokenIdentity) {
  using Edit = void (*)(ServiceCheckpoint&);
  const std::pair<Edit, const char*> cases[] = {
      {[](ServiceCheckpoint& c) { c.agg.retries = -1; }, "negative count"},
      {[](ServiceCheckpoint& c) { c.agg.devices[0].latency_us_sum = -5; },
       "negative per-device count"},
      {[](ServiceCheckpoint& c) { c.agg.latency_hist_100us[-1] = 0; },
       "negative latency histogram entry"},
      {[](ServiceCheckpoint& c) { ++c.slot; }, "slots_folded != slot"},
      {[](ServiceCheckpoint& c) { ++c.agg.shots_folded; },
       "shots_folded != slot * devices"},
      {[](ServiceCheckpoint& c) { ++c.agg.shed; },
       "ok + shed + rejected + timeouts + capture_lost + decode_lost != "
       "shots_folded"},
      {[](ServiceCheckpoint& c) { ++c.agg.slots_lost; },
       "slots_fully_covered + slots_degraded + slots_lost != slots_folded"},
      {[](ServiceCheckpoint& c) { ++c.agg.verdicts.unstable_items; },
       "unstable + all_correct + all_incorrect slots != slots_observed"},
      {[](ServiceCheckpoint& c) {
         c.agg.verdicts = {15, 15, 0, 0};
       },
       "slots_observed > slots_folded"},
      {[](ServiceCheckpoint& c) { c.agg.correct = 41; }, "correct > ok"},
      {[](ServiceCheckpoint& c) { c.agg.devices.clear(); },
       "per-device rows != devices"},
      {[](ServiceCheckpoint& c) { ++c.agg.devices[1].correct; },
       "per-device correct != correct"},
      {[](ServiceCheckpoint& c) {
         --c.agg.devices[1].timeouts;
         ++c.agg.devices[1].decode_lost;
       },
       "per-device timeouts != timeouts"},
      {[](ServiceCheckpoint& c) { ++c.agg.latency_hist_100us[3]; },
       "latency histogram total != ok"},
      {[](ServiceCheckpoint& c) { c.ledger_events.pop_back(); },
       "fault_events != ledger events"},
  };
  for (const auto& [edit, identity] : cases) {
    ServiceCheckpoint ckpt = sample_checkpoint();
    edit(ckpt);
    EXPECT_EQ(inconsistency(ckpt), identity);
  }
}

TEST(AggregateCheck, HugeCountsNeverOverflow) {
  // Counts near LLONG_MAX must fail the identities, not wrap them: under
  // UBSan (asan_smoke) an overflowing sum is a hard failure.
  constexpr long long kMax = std::numeric_limits<long long>::max();
  ServiceCheckpoint ckpt = sample_checkpoint();
  ckpt.agg.ok = kMax;
  ckpt.agg.shed = kMax;
  EXPECT_NE(inconsistency(ckpt), "");

  ckpt = sample_checkpoint();
  ckpt.slot = kMax;
  ckpt.agg.slots_folded = kMax;
  EXPECT_EQ(inconsistency(ckpt), "shots_folded != slot * devices");

  ckpt = sample_checkpoint();
  ckpt.agg.verdicts = {kMax, kMax, kMax, 0};
  EXPECT_NE(inconsistency(ckpt), "");

  ckpt = sample_checkpoint();
  ckpt.agg.devices[0].ok = kMax;
  ckpt.agg.devices[1].ok = kMax;
  EXPECT_EQ(inconsistency(ckpt), "per-device ok != ok");

  ckpt = sample_checkpoint();
  ckpt.agg.latency_hist_100us[9] = kMax;
  EXPECT_EQ(inconsistency(ckpt), "latency histogram total != ok");
}

}  // namespace
}  // namespace edgestab
