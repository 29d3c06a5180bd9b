// The benchmark's measured program.
//
// Runs one workload of the capture -> ISP -> codec -> decode ->
// inference path through the libraries' public functions and prints
// one JSON result line (the last line of stdout). See README.md for the
// workloads, the metrics and how they relate.
//
//   perfbench --warm                  # fill the model cache
//   perfbench --workload soak_clean --seed 1 --seconds 16 --trace 0
//
// --trace 0 is the end-to-end run: every obs singleton stays disarmed
// (the library default) and the program records no spans. --trace 1 is
// the layer run: real service / experiment calls for the process
// figures, then a single-threaded replay of a fixed sample of the
// workload's shots with a span around every layer call.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "codec/codec.h"
#include "codec/jpeg_like.h"
#include "core/experiment.h"
#include "core/instability.h"
#include "core/workspace.h"
#include "data/dataset.h"
#include "data/labels.h"
#include "data/lab_rig.h"
#include "data/render.h"
#include "data/screen.h"
#include "device/fleets.h"
#include "fault/fault.h"
#include "image/resize.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "obs/fault_ledger.h"
#include "obs/json.h"
#include "runtime/seed.h"
#include "runtime/thread_pool.h"
#include "service/checkpoint.h"
#include "service/pipeline.h"
#include "spans.h"
#include "tensor/backend.h"
#include "util/hashing.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace edgestab;
namespace pb = perfbench;

namespace {

// ---- Workload geometry ------------------------------------------------------

enum class Workload { kSoakClean, kSoakChaos, kFig3Batch };

constexpr int kSoakDevices = 64;
constexpr long long kSoakShotsPerRep = 6400;  // 100 slots
constexpr int kChaosCheckpointSlots = 4;
constexpr const char* kChaosPlan = "heavy,budget,lat_slow=0.10";
constexpr int kFig3ObjectsPerClass = 4;
constexpr int kSetupBatch = 8;  // set-ups timed at each sampling point

// Traced-run sizes.
constexpr int kTracedReps = 3;
constexpr int kReplayPasses = 3;  // each untraced, then traced
constexpr int kSoakReplaySlots = 16;  // x 64 devices = 1024 shots
constexpr int kRenderSamples = 128;
constexpr int kInstabilityCalls = 400;
constexpr int kCheckpointProbes = 5;
constexpr int kReplayBatch = 8;

// The service's stimulus-bank derivation (service/pipeline.cpp), so the
// replay photographs the scenes a soak run photographs.
constexpr int kClassCount = 12;
constexpr float kBankAngles[] = {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f};
const char* const kServiceStages[] = {"capture", "isp", "codec", "decode",
                                      "inference"};

struct Options {
  std::string workload_name;
  Workload workload = Workload::kSoakClean;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  // worker lanes: the host's hardware threads
  bool warm = false;
  std::string out_dir = ".bench_build/perfbench_out";
  std::string git_sha = "unknown";
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "[perfbench] %s\n", message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--warm") {
      opt.warm = true;
    } else if (arg == "--workload") {
      opt.workload_name = value(i);
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(i).c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value(i).c_str());
    } else if (arg == "--trace") {
      opt.trace = value(i) == "1";
    } else if (arg == "--out") {
      opt.out_dir = value(i);
    } else if (arg == "--git-sha") {
      opt.git_sha = value(i);
    } else {
      die("unknown argument " + arg);
    }
  }
  opt.threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (opt.warm) return opt;
  if (!have_workload) die("--workload is required");
  if (opt.workload_name == "soak_clean")
    opt.workload = Workload::kSoakClean;
  else if (opt.workload_name == "soak_chaos")
    opt.workload = Workload::kSoakChaos;
  else if (opt.workload_name == "fig3_batch")
    opt.workload = Workload::kFig3Batch;
  else
    die("unknown workload " + opt.workload_name);
  if (!(opt.seconds > 0.0)) die("--seconds must be positive");
  return opt;
}

// ---- Process measurements ---------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Time of a fixed single-threaded loop that runs none of the code under
// test. It is recorded with every result, before and after the timed
// work, so that a spread between runs can be told apart from the host
// changing speed.
double host_loop_ms() {
  const double t0 = now_s();
  volatile double x = 0.0;
  for (int i = 0; i < 20'000'000; ++i) x = x + 0.5 * i;
  return (now_s() - t0) * 1000.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void write_array(obs::JsonWriter& w, const std::vector<double>& values) {
  w.begin_array();
  for (double v : values) w.value(v);
  w.end_array();
}

// Ordered metric rows: the result's "metrics" object.
struct Metrics {
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows;
  void set(const std::string& name, double value, const std::string& unit) {
    rows.push_back({name, value, unit});
  }
};

// ---- Set-up -----------------------------------------------------------------

struct Bench {
  Model model;
  service::ServiceConfig service;  // soak workloads
  std::vector<PhoneProfile> fleet;  // fig3_batch
  LabRigConfig rig;                 // fig3_batch
};

WorkspaceConfig quiet_workspace() {
  WorkspaceConfig config;
  config.verbose = false;
  return config;
}

// Cache file Workspace::base_model() loads (same key derivation).
std::string base_model_path(const Workspace& ws) {
  Fingerprint fp;
  fp.add(ws.fingerprint()).add("base-model");
  return ws.cache_dir() + "/base_model_" + fp.hex() + ".bin";
}

bool is_soak(Workload w) { return w != Workload::kFig3Batch; }

LabRigConfig fig3_rig(std::uint64_t seed) {
  LabRigConfig rig;
  rig.objects_per_class = kFig3ObjectsPerClass;
  rig.shots_per_stimulus = 2;
  rig.seed = seed;
  return rig;
}

// The whole set-up path of one run: model load from the warm cache,
// backend selection, pool construction and fleet / rig construction.
Bench set_up(const Options& opt) {
  Workspace ws(quiet_workspace());
  if (!std::filesystem::exists(base_model_path(ws)))
    die("model cache is cold (" + base_model_path(ws) +
        "): this run would pretrain the base model; run "
        "perfbench --warm first");
  if (set_active_backend(BackendKind::kAvx2) != BackendKind::kAvx2)
    die("the avx2 backend is unavailable; refusing to time the scalar "
        "fallback");
  runtime::ThreadPool::set_global_threads(opt.threads);
  Bench b{ws.base_model(), {}, {}, {}};
  if (is_soak(opt.workload)) {
    service::ServiceConfig& c = b.service;
    c.devices = kSoakDevices;
    c.shots = kSoakShotsPerRep;
    c.stimulus_bank = 8;
    c.scene_size = 48;
    c.inference_batch = 8;
    c.seed = opt.seed;
    c.threads = opt.threads;
    if (opt.workload == Workload::kSoakChaos) {
      c.plan = fault::parse_fault_plan(kChaosPlan);
      fault::FaultInjector::global().configure(c.plan);
      c.checkpoint_every_slots = kChaosCheckpointSlots;
      c.checkpoint_path = opt.out_dir + "/soak_chaos.ckpt.json";
    } else {
      fault::FaultInjector::global().reset();
    }
  } else {
    fault::FaultInjector::global().reset();
    b.fleet = end_to_end_fleet();
    b.rig = fig3_rig(opt.seed);
  }
  return b;
}

// Times kSetupBatch runs of the set-up path, appending each time to
// `samples`; returns the objects of the last one.
std::unique_ptr<Bench> time_set_up(const Options& opt,
                                   std::vector<double>& samples) {
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetupBatch; ++i) {
    bench.reset();
    const double t0 = now_s();
    bench = std::make_unique<Bench>(set_up(opt));
    samples.push_back(now_s() - t0);
  }
  return bench;
}

// ---- One repeat of a workload -----------------------------------------------

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long long shots = 0;
  long long classified = 0;
  pb::AllocTotals allocs;
  std::string error;  // non-empty: the correctness gate failed

  // What the gate compares across repeats.
  std::vector<std::uint64_t> fingerprint;
  std::vector<service::StageStats> stages;
  int checkpoints = 0;
  std::vector<Observation> observations;  // fig3_batch
};

Rep soak_rep(Bench& b, int threads) {
  obs::FaultLedger::global().clear();
  b.service.threads = threads;
  Rep rep;
  const pb::AllocTotals a0 = pb::alloc_totals();
  const double c0 = cpu_s();
  const double t0 = now_s();
  const service::SoakReport r = service::run_fleet_service(b.model, b.service);
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  rep.allocs = pb::alloc_totals() - a0;
  rep.shots = b.service.shots;
  rep.classified = r.agg.ok;
  rep.stages = r.stages;
  rep.checkpoints = r.checkpoints_written;
  const service::AggregateState& a = r.agg;
  const long long accounted = a.ok + a.shed + a.rejected + a.timeouts +
                              a.capture_lost + a.decode_lost;
  if (!r.completed || r.shots != rep.shots || a.shots_folded != rep.shots)
    rep.error = "soak run did not fold every shot";
  else if (accounted != rep.shots)
    rep.error = "outcomes account for " + std::to_string(accounted) +
                " of " + std::to_string(rep.shots) + " shots";
  rep.fingerprint = {r.config_digest,     r.agg_digest,
                     r.ledger_digest,     r.breaker_digest,
                     r.telemetry_digest,  static_cast<std::uint64_t>(a.ok),
                     static_cast<std::uint64_t>(accounted - a.ok)};
  return rep;
}

Rep fig3_rep(Bench& b) {
  Rep rep;
  const pb::AllocTotals a0 = pb::alloc_totals();
  const double c0 = cpu_s();
  const double t0 = now_s();
  EndToEndResult r = run_end_to_end(b.model, b.fleet, b.rig);
  rep.wall_s = now_s() - t0;
  rep.cpu_s = cpu_s() - c0;
  rep.allocs = pb::alloc_totals() - a0;
  const long long stimuli =
      static_cast<long long>(target_classes().size()) *
      b.rig.objects_per_class * static_cast<long long>(b.rig.angles.size());
  rep.shots = stimuli * static_cast<long long>(b.fleet.size()) *
              b.rig.shots_per_stimulus;
  rep.classified =
      rep.shots - r.resilience.shots_lost - r.resilience.shots_excluded;
  if (r.overall.total_items != stimuli || rep.classified != rep.shots)
    rep.error = "fig3 run did not classify every shot";
  // Instability and per-phone accuracy, bit for bit.
  Fingerprint fp;
  fp.add(r.overall.total_items)
      .add(r.overall.unstable_items)
      .add(r.overall.all_correct_items)
      .add(r.overall.all_incorrect_items);
  for (double acc : r.accuracy_by_phone) fp.add(acc);
  for (double w : r.within_phone_instability) fp.add(w);
  rep.fingerprint = {fp.value(), static_cast<std::uint64_t>(rep.classified)};
  rep.observations = std::move(r.observations);
  return rep;
}

Rep run_rep(const Options& opt, Bench& b, int threads) {
  return is_soak(opt.workload) ? soak_rep(b, threads) : fig3_rep(b);
}

// Correctness gate: a repeat must pass its own checks and reproduce the
// reference repeat's digests exactly.
void gate(Rep& rep, const Rep& reference) {
  if (rep.error.empty() && rep.fingerprint != reference.fingerprint)
    rep.error = "digests differ from the reference run";
}

// The reference repeat: for the soak a threads = 1 run (digests must not
// depend on the worker count); for fig3 the first repeat at full width.
Rep reference_rep(const Options& opt, Bench& b) {
  if (!is_soak(opt.workload)) return run_rep(opt, b, opt.threads);
  runtime::ThreadPool::set_global_threads(1);
  Rep ref = run_rep(opt, b, 1);
  runtime::ThreadPool::set_global_threads(opt.threads);
  return ref;
}

// ---- Replay: the layer calls of a fixed sample of shots ---------------------

struct ReplayShot {
  const Image* emission = nullptr;  // framed (soak) or screen emission
  const PhoneProfile* phone = nullptr;
  bool warp = false;                // frame the emission (take_photo's optics)
  JpegDecodeOptions os_decoder;
  Pcg32 rng;                        // the shot's sensor-noise stream
  int item = 0;
  int env = 0;
  int class_id = 0;
};

struct Replay {
  std::vector<Image> images;  // owns what ReplayShot::emission points at
  std::vector<PhoneProfile> phones;
  std::vector<ReplayShot> shots;
};

Image frame(const Image& emission, const PhoneProfile& phone) {
  if (phone.mount_dx == 0.0f && phone.mount_dy == 0.0f &&
      phone.mount_tilt == 0.0f)
    return emission;
  const float cx = static_cast<float>(emission.width()) / 2.0f;
  const float cy = static_cast<float>(emission.height()) / 2.0f;
  const Affine warp = Affine::rotate_about(phone.mount_tilt, cx, cy)
                          .compose(Affine::translate(phone.mount_dx,
                                                     phone.mount_dy));
  return warp_affine(emission, warp, emission.width(), emission.height());
}

Image render_stimulus(const SceneSpec& spec, int size,
                      const ScreenConfig& screen, pb::SpanRecorder& spans) {
  pb::SpanScope span(spans, "data.render");
  return display_on_screen(render_scene(spec, size), screen);
}

// Shots g = 0 .. slots * devices - 1 of the soak, as the service's
// stages would process them.
Replay soak_replay(const Bench& b, pb::SpanRecorder& spans) {
  const service::ServiceConfig& c = b.service;
  Replay rp;
  const std::vector<PhoneProfile> base = end_to_end_fleet(c.divergence);
  std::vector<Image> bank;
  for (int s = 0; s < c.stimulus_bank; ++s) {
    SceneSpec spec;
    spec.class_id = s % kClassCount;
    spec.instance_seed = runtime::derive_seed(c.seed, 0xBA4C, s);
    spec.view_angle = kBankAngles[static_cast<std::size_t>(s) % 5];
    bank.push_back(render_stimulus(spec, c.scene_size, ScreenConfig{}, spans));
  }
  rp.images.reserve(base.size() * bank.size());
  for (const PhoneProfile& phone : base)
    for (const Image& emission : bank)
      rp.images.push_back(frame(emission, phone));
  rp.phones.reserve(static_cast<std::size_t>(c.devices));
  for (int d = 0; d < c.devices; ++d) {
    PhoneProfile p = base[static_cast<std::size_t>(d) % base.size()];
    p.noise_stream = runtime::derive_seed(c.seed, 0x5EDE, d);
    rp.phones.push_back(std::move(p));
  }
  const long long n = static_cast<long long>(kSoakReplaySlots) * c.devices;
  for (long long g = 0; g < n; ++g) {
    const int d = static_cast<int>(g % c.devices);
    const long long slot = g / c.devices;
    const int stimulus = static_cast<int>(slot % c.stimulus_bank);
    ReplayShot shot;
    const std::size_t base_idx = static_cast<std::size_t>(d) % base.size();
    shot.emission = &rp.images[base_idx * bank.size() +
                               static_cast<std::size_t>(stimulus)];
    shot.phone = &rp.phones[static_cast<std::size_t>(d)];
    shot.os_decoder = shot.phone->os_decoder;
    shot.rng = runtime::derive_rng(c.seed, shot.phone->noise_stream, stimulus,
                                   slot);
    shot.item = static_cast<int>(slot);
    shot.env = d;
    shot.class_id = stimulus % kClassCount;
    rp.shots.push_back(shot);
  }
  return rp;
}

// First shot of every phone on every rig stimulus (100 x 5 phones), as
// run_lab_rig + run_end_to_end would process them.
Replay fig3_replay(const Bench& b, pb::SpanRecorder& spans) {
  const LabRigConfig& rig = b.rig;
  Replay rp;
  rp.phones = b.fleet;
  const int angles = static_cast<int>(rig.angles.size());
  const int stimuli = static_cast<int>(target_classes().size()) *
                      rig.objects_per_class * angles;
  rp.images.reserve(static_cast<std::size_t>(stimuli));
  for (int s = 0; s < stimuli; ++s) {
    const int obj = s / angles;
    const int per_class = rig.objects_per_class;
    SceneSpec spec;
    spec.class_id = target_classes()[static_cast<std::size_t>(obj / per_class)];
    spec.instance_seed =
        rig.seed * 131 + static_cast<std::uint64_t>(obj % per_class);
    spec.view_angle = rig.angles[static_cast<std::size_t>(s % angles)];
    rp.images.push_back(
        render_stimulus(spec, rig.scene_size, rig.screen, spans));
    for (std::size_t p = 0; p < rp.phones.size(); ++p) {
      ReplayShot shot;
      shot.emission = &rp.images.back();
      shot.phone = &rp.phones[p];
      shot.warp = true;
      shot.rng = runtime::derive_rng(rig.seed, rp.phones[p].noise_stream,
                                     static_cast<std::size_t>(s),
                                     std::size_t{0});
      shot.item = s;
      shot.env = static_cast<int>(p);
      shot.class_id = spec.class_id;
      rp.shots.push_back(shot);
    }
  }
  return rp;
}

// Format key and codec span names of a storage format.
struct FormatNames {
  const char* key;
  const char* encode;
  const char* decode;
};

FormatNames format_names(ImageFormat format) {
  switch (format) {
    case ImageFormat::kJpegLike:
      return {"jpeg", "codec.encode.jpeg", "codec.decode.jpeg"};
    case ImageFormat::kPngLike:
      return {"png", "codec.encode.png", "codec.decode.png"};
    case ImageFormat::kWebpLike:
      return {"webp", "codec.encode.webp", "codec.decode.webp"};
    case ImageFormat::kHeifLike:
      return {"heif", "codec.encode.heif", "codec.decode.heif"};
  }
  return {"unknown", "codec.encode.unknown", "codec.decode.unknown"};
}

struct Pass {
  bool ok = true;  // every replayed capture decoded
  std::vector<Tensor> inputs;
  std::vector<Observation> observations;
  std::map<std::string, std::vector<double>> file_bytes;  // by format key
};

// One pass of the serial chain over every sampled shot: expose ->
// develop -> encode -> decode per shot, then classify in batches of 8.
Pass replay_pass(Model& model, const Replay& rp, pb::SpanRecorder& spans) {
  Pass pass;
  std::vector<Tensor>& inputs = pass.inputs;
  std::vector<Observation>& observations = pass.observations;
  std::vector<Tensor> batch;
  std::vector<const ReplayShot*> batch_shots;
  auto flush = [&] {
    if (batch.empty()) return;
    std::vector<ShotPrediction> preds;
    {
      pb::SpanScope span(spans, "nn.classify_b8");
      preds = classify_inputs(model, batch, 3, nullptr);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Observation o;
      o.item = batch_shots[i]->item;
      o.env = batch_shots[i]->env;
      o.class_id = batch_shots[i]->class_id;
      o.predicted = preds[i].predicted();
      o.confidence = preds[i].confidence();
      o.correct = topk_correct(preds[i], o.class_id, 1);
      observations.push_back(o);
      inputs.push_back(std::move(batch[i]));
    }
    batch.clear();
    batch_shots.clear();
  };
  for (const ReplayShot& shot : rp.shots) {
    const PhoneProfile& phone = *shot.phone;
    {
      pb::SpanScope shot_span(spans, "service.shot");
      Pcg32 rng = shot.rng;
      Image framed;
      if (shot.warp) framed = frame(*shot.emission, phone);
      const Image& scene = shot.warp ? framed : *shot.emission;
      RawImage raw;
      {
        pb::SpanScope span(spans, "isp.expose");
        raw = expose_sensor(scene, phone.sensor, rng);
      }
      Image developed;
      {
        pb::SpanScope span(spans, "isp.develop");
        developed = run_isp(raw, phone.isp);
      }
      const bool jpeg = phone.storage_format == ImageFormat::kJpegLike;
      const FormatNames fmt = format_names(phone.storage_format);
      std::unique_ptr<Codec> codec =
          jpeg ? std::make_unique<JpegLikeCodec>(phone.storage_quality,
                                                 shot.os_decoder)
               : make_codec(phone.storage_format, phone.storage_quality);
      const ImageU8 pixels = to_u8(developed);
      Bytes file;
      {
        pb::SpanScope span(spans, fmt.encode);
        file = codec->encode(pixels);
      }
      DecodeResult decoded;
      {
        pb::SpanScope span(spans, fmt.decode);
        decoded = codec->try_decode(file);
      }
      pass.file_bytes[fmt.key].push_back(static_cast<double>(file.size()));
      if (!decoded.ok()) {
        pass.ok = false;
        continue;
      }
      batch.push_back(capture_to_input(decoded.image));
      batch_shots.push_back(&shot);
    }
    if (static_cast<int>(batch.size()) == kReplayBatch) flush();
  }
  flush();
  return pass;
}

// ---- The two run modes ------------------------------------------------------

struct Outcome {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;
  // Provenance beyond the common fields: per-repeat or per-pass figures.
  std::vector<std::pair<std::string, std::vector<double>>> series;
  std::vector<std::uint64_t> digests;
};

void note_rep(Outcome& out, const Rep& rep) {
  out.attempted += rep.shots;
  if (!rep.error.empty()) {
    out.correct = false;
    out.failed += rep.shots;
    out.errors.push_back(rep.error);
  }
}

// `setup_s` holds the set-up times taken before the run; more are taken
// after every repeat. One batch covers only a few milliseconds, and the
// host's speed differs from one such window to the next far more than
// the set-up's own cost does, so the median is taken over windows spread
// across the whole run.
void end_to_end_run(const Options& opt, Bench& b,
                    std::vector<double>& setup_s, pb::SpanRecorder& spans,
                    Outcome& out) {
  Rep reference = reference_rep(opt, b);
  note_rep(out, reference);
  time_set_up(opt, setup_s);
  std::vector<double> rate, cpu_ms;
  const double deadline = now_s() + opt.seconds;
  do {
    Rep rep = run_rep(opt, b, opt.threads);
    gate(rep, reference);
    note_rep(out, rep);
    rate.push_back(static_cast<double>(rep.classified) / rep.wall_s);
    cpu_ms.push_back(rep.cpu_s * 1000.0 /
                     static_cast<double>(std::max(1LL, rep.classified)));
    time_set_up(opt, setup_s);
  } while (now_s() < deadline);
  const double rss = peak_rss_mb();
  if (!spans.spans().empty()) {
    out.correct = false;
    out.errors.push_back("the end-to-end run recorded spans");
  }
  out.metrics.set("classified_per_s", pb::median(rate), "1/s");
  out.metrics.set("cpu_ms_per_classified", pb::median(cpu_ms), "ms");
  out.metrics.set("peak_rss_mb", rss, "MiB");
  out.metrics.set("classified_share",
                  static_cast<double>(reference.classified) /
                      static_cast<double>(reference.shots),
                  "ratio");
  out.metrics.set("setup_s", pb::median(setup_s), "s");
  out.series = {{"classified_per_s_reps", rate},
                {"cpu_ms_per_classified_reps", cpu_ms}};
  out.digests = reference.fingerprint;
}

void set_pcts(Metrics& m, const std::string& name,
              const std::vector<double>& values, const std::string& unit) {
  m.set(name + ".p50", pb::percentile(values, 0.50), unit);
  m.set(name + ".p99", pb::percentile(values, 0.99), unit);
}

void layer_run(const Options& opt, Bench& b, pb::SpanRecorder& spans,
               Outcome& out) {
  Metrics& m = out.metrics;
  // Real calls at full width: process figures, stage stats, checkpoints.
  Rep reference = reference_rep(opt, b);
  note_rep(out, reference);
  std::vector<double> allocs_per_shot, mb_per_shot, cpu_util, rate;
  Rep last;
  for (int i = 0; i < kTracedReps; ++i) {
    last = run_rep(opt, b, opt.threads);
    gate(last, reference);
    note_rep(out, last);
    const double shots = static_cast<double>(last.shots);
    allocs_per_shot.push_back(static_cast<double>(last.allocs.count) / shots);
    mb_per_shot.push_back(static_cast<double>(last.allocs.bytes) / shots /
                          (1024.0 * 1024.0));
    cpu_util.push_back(last.cpu_s / (last.wall_s * opt.threads));
    rate.push_back(static_cast<double>(last.classified) / last.wall_s);
  }

  spans.reserve(1 << 16);
  spans.set_armed(true);

  // Checkpoint files of the last real call (soak_chaos only).
  double ckpt_bytes = 0.0;
  if (is_soak(opt.workload) && b.service.checkpoint_every_slots > 0) {
    const std::string& path = b.service.checkpoint_path;
    ckpt_bytes = static_cast<double>(std::filesystem::file_size(path));
    const std::string probe = opt.out_dir + "/checkpoint_probe.json";
    for (int i = 0; i < kCheckpointProbes; ++i) {
      service::ServiceCheckpoint ckpt;
      std::string error;
      bool loaded = false;
      {
        pb::SpanScope span(spans, "service.ckpt_load");
        loaded = service::load_checkpoint_file(path, &ckpt, &error);
      }
      bool written = false;
      {
        pb::SpanScope span(spans, "service.ckpt_write");
        written = service::write_checkpoint_file(probe, ckpt, &error);
      }
      if (!loaded || !written) {
        out.correct = false;
        out.errors.push_back("checkpoint round trip failed: " + error);
        break;
      }
    }
    std::filesystem::remove(probe);
  }

  // Serial replay on one lane, alternating untraced and traced passes.
  runtime::ThreadPool::set_global_threads(1);
  const Replay rp = is_soak(opt.workload) ? soak_replay(b, spans)
                                          : fig3_replay(b, spans);
  for (int i = 0; i < kRenderSamples; ++i) {
    // Extra scenes for the render figure (the soak bank has only 8).
    SceneSpec spec;
    spec.class_id = i % kClassCount;
    spec.instance_seed = runtime::derive_seed(opt.seed, 0xBA4C, 1000 + i);
    spec.view_angle = kBankAngles[static_cast<std::size_t>(i) % 5];
    const int size = is_soak(opt.workload) ? b.service.scene_size
                                           : b.rig.scene_size;
    render_stimulus(spec, size, ScreenConfig{}, spans);
  }
  Pass pass;
  std::vector<double> untraced_s, traced_s;
  for (int i = 0; i < 2 * kReplayPasses; ++i) {
    const bool traced = i % 2 == 1;
    spans.set_armed(traced);
    const double t0 = now_s();
    pass = replay_pass(b.model, rp, spans);
    (traced ? traced_s : untraced_s).push_back(now_s() - t0);
    if (!pass.ok) {
      out.correct = false;
      out.errors.push_back("a replayed capture failed to decode");
    }
  }
  spans.set_armed(true);
  for (const Tensor& input : pass.inputs) {
    const std::vector<Tensor> one{input};
    pb::SpanScope span(spans, "nn.classify_b1");
    classify_inputs(b.model, one, 3, nullptr);
  }
  const std::vector<Observation>& inst_obs =
      is_soak(opt.workload) ? pass.observations : last.observations;
  for (int i = 0; i < kInstabilityCalls; ++i) {
    pb::SpanScope span(spans, "core.instability");
    compute_instability(inst_obs);
  }
  spans.set_armed(false);
  runtime::ThreadPool::set_global_threads(opt.threads);

  // ---- Per-layer figures.
  set_pcts(m, "data.render_ms", spans.self_ms("data.render"), "ms");
  set_pcts(m, "isp.expose_ms", spans.self_ms("isp.expose"), "ms");
  set_pcts(m, "isp.develop_ms", spans.self_ms("isp.develop"), "ms");
  for (const std::string f : {"jpeg", "heif"}) {
    const std::vector<double> encode_ms = spans.self_ms("codec.encode." + f);
    set_pcts(m, "codec.encode_ms." + f, encode_ms, "ms");
    set_pcts(m, "codec.decode_ms." + f, spans.self_ms("codec.decode." + f),
             "ms");
    m.set("codec.encode_ms." + f + ".n", static_cast<double>(encode_ms.size()),
          "count");
    m.set("codec.bytes." + f, pb::median(pass.file_bytes[f]), "B");
  }
  set_pcts(m, "nn.classify_b8_ms", spans.self_ms("nn.classify_b8"), "ms");
  set_pcts(m, "nn.classify_b1_ms", spans.self_ms("nn.classify_b1"), "ms");
  {
    std::vector<double> count, kb;
    for (const pb::AllocTotals& a : spans.allocs("nn.classify_b8")) {
      count.push_back(static_cast<double>(a.count));
      kb.push_back(static_cast<double>(a.bytes) / 1024.0);
    }
    m.set("nn.allocs_per_b8", pb::median(count), "count");
    m.set("nn.alloc_kb_per_b8", pb::median(kb), "KiB");
    m.set("nn.classify_b8_ms.n", static_cast<double>(count.size()), "count");
  }
  set_pcts(m, "core.instability_ms", spans.self_ms("core.instability"),
           "ms");
  set_pcts(m, "service.shot_self_ms", spans.self_ms("service.shot"), "ms");
  m.set("isp.expose_ms.n",
        static_cast<double>(spans.self_ms("isp.expose").size()), "count");

  for (const char* stage : kServiceStages) {
    double high_water = 0.0, workers = 0.0;
    for (const service::StageStats& s : last.stages) {
      if (s.name != stage) continue;
      high_water = static_cast<double>(s.high_water);
      workers = static_cast<double>(s.workers);
    }
    m.set(std::string("service.") + stage + ".high_water", high_water,
          "count");
    m.set(std::string("service.") + stage + ".workers", workers, "count");
  }
  const double serial_shot_ms =
      pb::median(untraced_s) * 1000.0 / static_cast<double>(rp.shots.size());
  m.set("service.serial_shot_ms", serial_shot_ms, "ms");
  m.set("service.parallel_speedup", pb::median(rate) * serial_shot_ms / 1000.0,
        "x");
  m.set("service.ckpt_count", static_cast<double>(last.checkpoints), "count");
  m.set("service.ckpt_bytes", ckpt_bytes, "B");
  m.set("service.ckpt_write_ms",
        pb::median(spans.self_ms("service.ckpt_write")), "ms");
  m.set("service.ckpt_load_ms", pb::median(spans.self_ms("service.ckpt_load")),
        "ms");

  m.set("proc.allocs_per_shot", pb::median(allocs_per_shot), "count");
  m.set("proc.allocs_per_shot_spread", pb::relative_range(allocs_per_shot),
        "ratio");
  m.set("proc.alloc_mb_per_shot", pb::median(mb_per_shot), "MiB");
  m.set("proc.cpu_util", pb::median(cpu_util), "ratio");
  const double untraced = pb::median(untraced_s);
  m.set("trace.overhead_pct",
        (pb::median(traced_s) - untraced) / untraced * 100.0, "%");
  m.set("trace.spans", static_cast<double>(spans.spans().size()), "count");

  std::ofstream(opt.out_dir + "/" + opt.workload_name + ".trace.json")
      << spans.chrome_trace_json();
  out.series = {{"untraced_pass_s", untraced_s}, {"traced_pass_s", traced_s}};
  out.digests = reference.fingerprint;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (opt.warm) {
    // May pretrain the base model (minutes); never part of a timed run.
    Workspace ws;
    const bool cold = !std::filesystem::exists(base_model_path(ws));
    ws.base_model();
    std::printf("[perfbench] model cache %s: %s\n",
                cold ? "filled" : "already warm", base_model_path(ws).c_str());
    return 0;
  }
  std::filesystem::create_directories(opt.out_dir);

  std::vector<double> host_ms = {host_loop_ms()};
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench = time_set_up(opt, setup_s);
  pb::SpanRecorder spans;
  Outcome out;
  if (opt.trace)
    layer_run(opt, *bench, spans, out);
  else
    end_to_end_run(opt, *bench, setup_s, spans, out);
  host_ms.push_back(host_loop_ms());

  obs::JsonWriter run;
  run.begin_object()
      .key("workload").value(opt.workload_name)
      .key("seed").value(opt.seed)
      .key("trace").value(opt.trace)
      .key("seconds").value(opt.seconds)
      .key("threads").value(opt.threads)
      .key("nproc").value(static_cast<int>(std::thread::hardware_concurrency()))
      .key("cpu_model").value(cpu_model())
      .key("backend").value(backend_name(active_backend()))
      .key("build_type").value(PERFBENCH_BUILD_TYPE)
      .key("git_sha").value(opt.git_sha)
      .key("host_loop_ms");
  write_array(run, host_ms);
  run.key("setup_s_reps");
  write_array(run, setup_s);
  for (const auto& [name, values] : out.series) {
    run.key(name);
    write_array(run, values);
  }
  run.key("digests").begin_array();
  for (std::uint64_t d : out.digests) run.value(hex64(d));
  run.end_array().key("errors").begin_array();
  for (const std::string& e : out.errors) run.value(e);
  run.end_array().end_object();
  const std::string provenance = run.take();

  obs::JsonWriter res;
  res.begin_object()
      .key("correct").value(out.correct)
      .key("attempted").value(static_cast<std::int64_t>(out.attempted))
      .key("failed").value(static_cast<std::int64_t>(out.failed))
      .key("metrics").begin_object();
  for (const Metrics::Row& row : out.metrics.rows)
    res.key(row.name).begin_object()
        .key("value").value(row.value)
        .key("unit").value(row.unit)
        .end_object();
  res.end_object().end_object();
  const std::string result = res.take();
  std::ofstream(opt.out_dir + "/results.jsonl", std::ios::app)
      << "{\"run\": " << provenance << ", \"result\": " << result << "}\n";
  std::printf("%s\n%s\n", provenance.c_str(), result.c_str());
  return out.correct ? 0 : 1;
}
