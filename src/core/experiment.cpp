#include "core/experiment.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "codec/png_like.h"
#include "data/dataset.h"
#include "data/labels.h"
#include "fault/fault.h"
#include "nn/trainer.h"
#include "obs/drift.h"
#include "obs/telemetry/telemetry.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"
#include "util/md5.h"

namespace edgestab {

namespace {

// ---- Divergence-auditor hooks ----------------------------------------------
// All no-ops unless a bench enabled the auditor; experiments stay
// oblivious to whether anyone is watching.

/// Name each environment index for the report tables.
void drift_label_envs(const char* group,
                      const std::vector<std::string>& names) {
  if (!obs::drift_enabled()) return;
  for (std::size_t i = 0; i < names.size(); ++i)
    obs::DriftAuditor::global().set_env_label(group, static_cast<int>(i),
                                              names[i]);
}

/// Feed one logit row per item, all from the same environment.
void drift_audit_logits(const char* group, const Tensor& logits,
                        const std::vector<RawShot>& bank, int env) {
  if (!obs::drift_enabled() || logits.empty()) return;
  auto& auditor = obs::DriftAuditor::global();
  const auto d = static_cast<std::size_t>(logits.dim(1));
  for (int i = 0; i < logits.dim(0); ++i)
    auditor.record_logits(
        group, bank[static_cast<std::size_t>(i)].item, env,
        std::span<const float>(logits.raw() + static_cast<std::size_t>(i) * d,
                               d));
}

/// Hand a finished observation set to the prediction-flip ledger. The
/// ledger reproduces compute_instability's bookkeeping exactly, so the
/// report's totals can be cross-checked against the paper metric.
void drift_audit_flips(const char* group,
                       std::span<const Observation> observations) {
  if (!obs::drift_enabled()) return;
  std::vector<obs::FlipOutcome> outcomes;
  outcomes.reserve(observations.size());
  for (const Observation& o : observations)
    outcomes.push_back({o.item, o.env, o.correct, o.predicted, o.class_id});
  obs::DriftAuditor::global().record_flips(group, outcomes);
}

// ---- Fleet-telemetry hooks -------------------------------------------------
// Only experiments whose environment axis IS the device feed the health
// registry (end_to_end, raw-vs-jpeg, os/cpu); codec- and ISP-indexed
// experiments don't — their "environments" are conditions, not phones.

/// Name each device index for the fleet dashboard.
void telemetry_label_devices(const std::vector<std::string>& names) {
  if (!obs::telemetry_enabled()) return;
  auto& registry = obs::DeviceHealthRegistry::global();
  for (std::size_t i = 0; i < names.size(); ++i)
    registry.set_device_label(static_cast<int>(i), names[i]);
}

/// Feed finished device-indexed observations. The flip flag is
/// obs::flipped, so the per-device flip rate recounts from the ledger.
void telemetry_record_observations(std::span<const Observation> observations) {
  if (!obs::telemetry_enabled()) return;
  std::map<int, long long> item_correct;
  for (const Observation& o : observations)
    if (o.correct) ++item_correct[o.item];
  auto& registry = obs::DeviceHealthRegistry::global();
  for (const Observation& o : observations)
    registry.record_observation(
        o.env, o.item, o.correct,
        obs::flipped(o.correct, item_correct[o.item]));
}

}  // namespace

std::vector<ShotPrediction> classify_inputs(
    const Model& model, const std::vector<Tensor>& inputs, int k,
    Tensor* logits_out) {
  ES_CHECK(!inputs.empty());
  ES_CHECK(k >= 1);
  // The forward reads every input where it lies; nothing is stacked.
  const Tensor& first = inputs.front();
  ES_CHECK(first.rank() == 4 && first.dim(0) == 1);
  std::vector<const float*> samples;
  samples.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    ES_CHECK(input.same_shape(first));
    samples.push_back(input.raw());
  }
  Tensor logits = predict_logits(
      model, samples, std::span<const int>(first.shape()).subspan(1));
  Tensor probs = Tensor::uninit(logits.shape());
  softmax_rows(logits, probs);
  if (logits_out != nullptr) *logits_out = std::move(logits);
  const int d = probs.dim(1);
  ES_CHECK(k <= d);

  std::vector<ShotPrediction> out;
  out.reserve(inputs.size());
  std::vector<int> order(static_cast<std::size_t>(d));
  for (int i = 0; i < probs.dim(0); ++i) {
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](int a, int b) {
                        return probs.at2(i, a) > probs.at2(i, b);
                      });
    ShotPrediction pred;
    pred.topk.reserve(static_cast<std::size_t>(k));
    pred.topk_conf.reserve(static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      pred.topk.push_back(order[static_cast<std::size_t>(j)]);
      pred.topk_conf.push_back(
          probs.at2(i, order[static_cast<std::size_t>(j)]));
    }
    out.push_back(std::move(pred));
  }
  return out;
}

bool topk_correct(const ShotPrediction& pred, int truth, int k) {
  ES_CHECK(k >= 1 && k <= static_cast<int>(pred.topk.size()));
  for (int j = 0; j < k; ++j)
    if (prediction_correct(truth, pred.topk[static_cast<std::size_t>(j)]))
      return true;
  return false;
}

// ---- End-to-end -------------------------------------------------------------

EndToEndResult run_end_to_end(Model& model,
                              const std::vector<PhoneProfile>& fleet,
                              const LabRigConfig& rig) {
  LabRun run = run_lab_rig(fleet, rig);

  const auto& injector = fault::FaultInjector::global();
  const bool faulted = injector.enabled();
  const auto phones = fleet.size();
  const auto shots_per = static_cast<std::size_t>(rig.shots_per_stimulus);
  const std::size_t stimuli = run.shots.size() / (phones * shots_per);
  const int slots_per_device = static_cast<int>(stimuli * shots_per);

  // Deliver + decode every shot in parallel: pure per-shot work, each
  // lane writes its own slot. With faults armed each delivery may be
  // corrupted and retried; without them this is exactly the old
  // decode_capture path.
  std::vector<ShotDelivery> delivered(run.shots.size());
  runtime::parallel_for(run.shots.size(), [&](std::size_t i) {
    const LabShot& shot = run.shots[i];
    if (shot.dropped) return;  // lost at capture; the rig filed the loss
    delivered[i] = deliver_shot(
        "end_to_end", shot.capture, shot.phone_index,
        fleet[static_cast<std::size_t>(shot.phone_index)].noise_stream,
        stimulus_id(run, shot), shot.repeat);
  });

  // Quarantine is a serial fold over each device's shots in stimulus
  // order — deterministic at any thread count — and everything a
  // quarantined device produced past its verdict is discarded.
  std::vector<unsigned char> usable(run.shots.size(), 0);
  auto slot_of = [&](const LabShot& shot) {
    return static_cast<int>(stimulus_id(run, shot)) *
               static_cast<int>(shots_per) +
           shot.repeat;
  };
  for (std::size_t i = 0; i < run.shots.size(); ++i) {
    const LabShot& shot = run.shots[i];
    usable[static_cast<std::size_t>(shot.phone_index) *
               static_cast<std::size_t>(slots_per_device) +
           static_cast<std::size_t>(slot_of(shot))] =
        delivered[i].usable ? 1 : 0;
  }
  const QuarantineDecision quarantine = quarantine_fold(
      "end_to_end", static_cast<int>(phones), slots_per_device, usable,
      faulted ? injector.plan().quarantine_after : 0,
      static_cast<int>(shots_per), /*record=*/faulted);

  std::vector<std::size_t> kept;  // identity on a clean run
  kept.reserve(run.shots.size());
  for (std::size_t i = 0; i < run.shots.size(); ++i) {
    const LabShot& shot = run.shots[i];
    if (!delivered[i].usable) continue;
    if (quarantine.excluded(shot.phone_index, slot_of(shot))) continue;
    kept.push_back(i);
  }

  EndToEndResult result;
  for (const PhoneProfile& p : fleet) result.phone_names.push_back(p.name);
  drift_label_envs("end_to_end", result.phone_names);
  telemetry_label_devices(result.phone_names);
  result.resilience = tally_fleet_coverage(
      static_cast<int>(phones), static_cast<int>(stimuli),
      static_cast<int>(shots_per), usable, quarantine);
  result.resilience.faults_active = faulted;
  if (kept.empty()) {
    // Whole fleet lost (heavy plans on tiny runs): degrade to an empty
    // result rather than aborting — coverage accounting says why.
    result.accuracy_by_phone.assign(phones, 0.0);
    result.accuracy_by_phone_top3.assign(phones, 0.0);
    return result;
  }

  std::vector<Tensor> inputs(kept.size());
  runtime::parallel_for(kept.size(), [&](std::size_t j) {
    inputs[j] = capture_to_input(delivered[kept[j]].image);
  });
  Tensor logits;
  std::vector<ShotPrediction> preds = classify_inputs(model, inputs, 3,
                                                      &logits);

  // Cross-phone observations use the first shot of each stimulus only;
  // repeats feed the within-phone analysis.
  std::vector<std::vector<Observation>> repeat_obs(
      fleet.size());  // per phone, env = repeat index
  for (std::size_t j = 0; j < kept.size(); ++j) {
    const LabShot& shot = run.shots[kept[j]];
    const ShotPrediction& pred = preds[j];
    Observation o;
    o.item = stimulus_id(run, shot);
    o.env = shot.phone_index;
    o.predicted = pred.predicted();
    o.confidence = pred.confidence();
    o.class_id = shot.class_id;
    o.angle = shot.angle_index;
    o.correct = topk_correct(pred, shot.class_id, 1);
    if (shot.repeat == 0) {
      result.observations.push_back(o);
      Observation o3 = o;
      o3.correct = topk_correct(pred, shot.class_id, 3);
      result.observations_top3.push_back(o3);
      if (obs::drift_enabled()) {
        const auto d = static_cast<std::size_t>(logits.dim(1));
        obs::DriftAuditor::global().record_logits(
            "end_to_end", o.item, o.env,
            std::span<const float>(logits.raw() + j * d, d));
      }
    }
    Observation rep = o;
    rep.env = shot.repeat;
    repeat_obs[static_cast<std::size_t>(shot.phone_index)].push_back(rep);
  }

  for (std::size_t p = 0; p < fleet.size(); ++p) {
    result.accuracy_by_phone.push_back(
        environment_accuracy(result.observations, static_cast<int>(p)));
    result.accuracy_by_phone_top3.push_back(
        environment_accuracy(result.observations_top3,
                             static_cast<int>(p)));
    if (rig.shots_per_stimulus > 1)
      result.within_phone_instability.push_back(
          compute_instability(repeat_obs[p]).instability());
  }
  result.overall = compute_instability(result.observations);
  result.by_class = instability_by_class(result.observations);
  result.by_angle = instability_by_angle(result.observations);
  result.overall_top3 = compute_instability(result.observations_top3);
  drift_audit_flips("end_to_end", result.observations);
  telemetry_record_observations(result.observations);
  return result;
}

// ---- Raw bank ---------------------------------------------------------------

std::vector<RawShot> collect_raw_bank(
    const std::vector<PhoneProfile>& fleet, const LabRigConfig& rig) {
  std::vector<PhoneProfile> raw_fleet;
  for (const PhoneProfile& p : fleet)
    if (p.supports_raw) raw_fleet.push_back(p);
  ES_CHECK_MSG(raw_fleet.size() >= 2,
               "raw experiments need >= 2 raw-capable phones");

  LabRun run = run_lab_rig(raw_fleet, rig);
  std::vector<RawShot> bank;
  bank.reserve(run.shots.size());
  for (const LabShot& shot : run.shots) {
    if (shot.repeat != 0) continue;
    if (shot.dropped) continue;  // lost at capture; the rig filed the loss
    ES_CHECK(shot.capture.raw.has_value());
    RawShot rs;
    rs.item = static_cast<int>(bank.size());
    rs.stimulus = stimulus_id(run, shot);
    rs.class_id = shot.class_id;
    rs.phone_index = shot.phone_index;
    rs.raw = *shot.capture.raw;
    rs.phone_pipeline = shot.capture;
    bank.push_back(std::move(rs));
  }
  return bank;
}

// ---- Compression ------------------------------------------------------------

namespace {

/// Develop every raw in the bank with the consistent software ISP once.
std::vector<Image> develop_bank(const std::vector<RawShot>& bank,
                                const IspConfig& isp) {
  std::vector<Image> developed(bank.size());
  runtime::parallel_for(bank.size(), [&](std::size_t i) {
    developed[i] = run_isp(bank[i].raw, isp);
  });
  return developed;
}

CompressionResult compression_over_conditions(
    Model& model, const std::vector<RawShot>& bank,
    const std::vector<Image>& developed,
    const std::vector<std::pair<std::string, std::unique_ptr<Codec>>>&
        conditions,
    const char* drift_group) {
  CompressionResult result;
  std::vector<Observation> observations;
  for (std::size_t ci = 0; ci < conditions.size(); ++ci) {
    const auto& [label, codec] = conditions[ci];
    if (obs::drift_enabled())
      obs::DriftAuditor::global().set_env_label(drift_group,
                                                static_cast<int>(ci), label);
    // Encode/decode every item in parallel; fold the sizes serially in
    // index order afterwards so the float sum associates the same way at
    // every thread count.
    std::vector<Tensor> inputs(bank.size());
    std::vector<std::size_t> file_sizes(bank.size(), 0);
    runtime::parallel_for(bank.size(), [&](std::size_t i) {
      ImageU8 u8 = to_u8(developed[i]);
      Bytes file = codec->encode(u8);
      file_sizes[i] = file.size();
      inputs[i] = capture_to_input(codec->decode(file));
    });
    double total_size = 0.0;
    for (std::size_t bytes : file_sizes)
      total_size += static_cast<double>(bytes);
    Tensor logits;
    std::vector<ShotPrediction> preds = classify_inputs(model, inputs, 3,
                                                        &logits);
    drift_audit_logits(drift_group, logits, bank, static_cast<int>(ci));

    CompressionCondition cond;
    cond.label = label;
    cond.avg_size_bytes = total_size / static_cast<double>(bank.size());
    int correct = 0;
    for (std::size_t i = 0; i < bank.size(); ++i) {
      Observation o;
      o.item = bank[i].item;
      o.env = static_cast<int>(ci);
      o.predicted = preds[i].predicted();
      o.confidence = preds[i].confidence();
      o.class_id = bank[i].class_id;
      o.correct = topk_correct(preds[i], bank[i].class_id, 1);
      if (o.correct) ++correct;
      observations.push_back(o);
    }
    cond.accuracy = static_cast<double>(correct) /
                    static_cast<double>(bank.size());
    result.conditions.push_back(std::move(cond));
  }
  result.instability = compute_instability(observations);
  drift_audit_flips(drift_group, observations);
  return result;
}

}  // namespace

CompressionResult run_jpeg_quality_experiment(
    Model& model, const std::vector<RawShot>& bank,
    const std::vector<int>& qualities) {
  std::vector<Image> developed = develop_bank(bank, magick_isp());
  std::vector<std::pair<std::string, std::unique_ptr<Codec>>> conditions;
  for (int q : qualities)
    conditions.emplace_back("JPEG " + std::to_string(q),
                            make_codec(ImageFormat::kJpegLike, q));
  return compression_over_conditions(model, bank, developed, conditions,
                                     "jpeg_quality");
}

CompressionResult run_format_experiment(Model& model,
                                        const std::vector<RawShot>& bank) {
  std::vector<Image> developed = develop_bank(bank, magick_isp());
  std::vector<std::pair<std::string, std::unique_ptr<Codec>>> conditions;
  for (ImageFormat f : {ImageFormat::kJpegLike, ImageFormat::kPngLike,
                        ImageFormat::kWebpLike, ImageFormat::kHeifLike})
    conditions.emplace_back(format_name(f), make_codec(f));
  return compression_over_conditions(model, bank, developed, conditions,
                                     "formats");
}

// ---- ISP ---------------------------------------------------------------------

IspResult run_isp_experiment(Model& model, const std::vector<RawShot>& bank,
                             const std::vector<IspConfig>& software_isps) {
  ES_CHECK(software_isps.size() >= 2);
  IspResult result;
  std::vector<Observation> observations;
  for (std::size_t ii = 0; ii < software_isps.size(); ++ii) {
    if (obs::drift_enabled())
      obs::DriftAuditor::global().set_env_label(
          "software_isp", static_cast<int>(ii), software_isps[ii].name);
    // Items fan out across lanes; environments (the outer ISP loop)
    // stay serial so the first ISP is every item's drift reference at
    // any thread count.
    std::vector<Tensor> inputs(bank.size());
    runtime::parallel_for(bank.size(), [&](std::size_t i) {
      const RawShot& rs = bank[i];
      // Each ISP is one environment: the drift taps inside run_isp
      // compare every stage's output against the first ISP's for the
      // same raw photo.
      ES_DRIFT_SCOPE("software_isp", rs.item, static_cast<int>(ii));
      inputs[i] = image_to_input(run_isp(rs.raw, software_isps[ii]));
    });
    Tensor logits;
    std::vector<ShotPrediction> preds = classify_inputs(model, inputs, 3,
                                                        &logits);
    drift_audit_logits("software_isp", logits, bank, static_cast<int>(ii));
    int correct = 0;
    for (std::size_t i = 0; i < bank.size(); ++i) {
      Observation o;
      o.item = bank[i].item;
      o.env = static_cast<int>(ii);
      o.predicted = preds[i].predicted();
      o.confidence = preds[i].confidence();
      o.class_id = bank[i].class_id;
      o.correct = topk_correct(preds[i], bank[i].class_id, 1);
      if (o.correct) ++correct;
      observations.push_back(o);
    }
    result.isp_names.push_back(software_isps[ii].name);
    result.accuracy.push_back(static_cast<double>(correct) /
                              static_cast<double>(bank.size()));
  }
  result.instability = compute_instability(observations);
  drift_audit_flips("software_isp", observations);
  return result;
}

// ---- OS / processor -----------------------------------------------------------

OsCpuResult run_os_cpu_experiment(Model& model,
                                  const std::vector<PhoneProfile>& fleet,
                                  const OsCpuConfig& config) {
  // Fixed pre-encoded image set over all 12 classes (the paper used a
  // Caltech101 subset: images that exist once, not per-phone captures).
  struct FixedImage {
    int class_id;
    Bytes jpeg;
    Bytes png;
  };
  JpegLikeCodec reference_encoder(config.jpeg_quality);
  PngLikeCodec png_codec;
  std::vector<FixedImage> images(
      static_cast<std::size_t>(kNumClasses) *
      static_cast<std::size_t>(config.images_per_class));
  runtime::parallel_for_2d(
      static_cast<std::size_t>(kNumClasses),
      static_cast<std::size_t>(config.images_per_class),
      [&](std::size_t cls, std::size_t i) {
        SceneSpec spec;
        spec.class_id = static_cast<int>(cls);
        spec.instance_seed = config.seed * 7919 + i;
        ImageU8 u8 = to_u8(render_scene(spec, config.scene_size));
        FixedImage fi;
        fi.class_id = static_cast<int>(cls);
        fi.jpeg = reference_encoder.encode(u8);
        fi.png = png_codec.encode(u8);
        images[cls * static_cast<std::size_t>(config.images_per_class) + i] =
            std::move(fi);
      });

  OsCpuResult result;
  std::vector<Observation> jpeg_obs, png_obs;
  // Signature of each phone's full (prediction, confidence) stream for
  // the agreement-group analysis.
  std::vector<std::string> signatures;

  for (std::size_t p = 0; p < fleet.size(); ++p) {
    const PhoneProfile& phone = fleet[p];
    result.phone_names.push_back(phone.name);
    result.soc_names.push_back(phone.backend.soc_name);
    if (obs::drift_enabled()) {
      obs::DriftAuditor::global().set_env_label(
          "os_jpeg", static_cast<int>(p), phone.name);
      obs::DriftAuditor::global().set_env_label(
          "os_png", static_cast<int>(p), phone.name);
    }
    model.set_matmul_mode(phone.backend.matmul_mode);

    // Decode in parallel, keeping each decoded image so the MD5 streams
    // (which are order-sensitive) can fold serially in index order.
    std::vector<ImageU8> jpeg_decoded(images.size()), png_decoded(images.size());
    std::vector<Tensor> jpeg_inputs(images.size()), png_inputs(images.size());
    runtime::parallel_for(images.size(), [&](std::size_t i) {
      JpegLikeCodec decoder(config.jpeg_quality, phone.os_decoder);
      jpeg_decoded[i] = decoder.decode(images[i].jpeg);
      jpeg_inputs[i] = capture_to_input(jpeg_decoded[i]);
      png_decoded[i] = png_codec.decode(images[i].png);
      png_inputs[i] = capture_to_input(png_decoded[i]);
    });
    Md5 jpeg_md5, png_md5;
    for (std::size_t i = 0; i < images.size(); ++i) {
      jpeg_md5.update(jpeg_decoded[i].data());
      png_md5.update(png_decoded[i].data());
    }
    auto jd = jpeg_md5.digest();
    auto pd = png_md5.digest();
    result.jpeg_decode_md5.push_back(to_hex(jd));
    result.png_decode_md5.push_back(to_hex(pd));

    Tensor jpeg_logits, png_logits;
    std::vector<ShotPrediction> jpeg_preds =
        classify_inputs(model, jpeg_inputs, 3, &jpeg_logits);
    std::vector<ShotPrediction> png_preds =
        classify_inputs(model, png_inputs, 3, &png_logits);
    if (obs::drift_enabled()) {
      auto& auditor = obs::DriftAuditor::global();
      const auto d = static_cast<std::size_t>(jpeg_logits.dim(1));
      for (std::size_t i = 0; i < images.size(); ++i) {
        auditor.record_logits(
            "os_jpeg", static_cast<int>(i), static_cast<int>(p),
            std::span<const float>(jpeg_logits.raw() + i * d, d));
        auditor.record_logits(
            "os_png", static_cast<int>(i), static_cast<int>(p),
            std::span<const float>(png_logits.raw() + i * d, d));
      }
    }

    ByteWriter signature;
    for (std::size_t i = 0; i < images.size(); ++i) {
      Observation oj;
      oj.item = static_cast<int>(i);
      oj.env = static_cast<int>(p);
      oj.predicted = jpeg_preds[i].predicted();
      oj.confidence = jpeg_preds[i].confidence();
      oj.class_id = images[i].class_id;
      oj.correct = topk_correct(jpeg_preds[i], images[i].class_id, 1);
      jpeg_obs.push_back(oj);

      Observation op = oj;
      op.predicted = png_preds[i].predicted();
      op.confidence = png_preds[i].confidence();
      op.correct = topk_correct(png_preds[i], images[i].class_id, 1);
      png_obs.push_back(op);

      signature.i32(oj.predicted);
      signature.f64(oj.confidence);
    }
    signatures.push_back(Md5::hex(signature.bytes()));
  }
  model.set_matmul_mode(MatmulMode::kStandard);

  result.jpeg_instability = compute_instability(jpeg_obs);
  result.png_instability = compute_instability(png_obs);
  drift_audit_flips("os_jpeg", jpeg_obs);
  drift_audit_flips("os_png", png_obs);
  telemetry_label_devices(result.phone_names);
  telemetry_record_observations(jpeg_obs);
  telemetry_record_observations(png_obs);

  // Group phones whose prediction/confidence streams are identical.
  std::vector<bool> grouped(fleet.size(), false);
  for (std::size_t a = 0; a < fleet.size(); ++a) {
    if (grouped[a]) continue;
    std::vector<std::string> group{fleet[a].name};
    grouped[a] = true;
    for (std::size_t b = a + 1; b < fleet.size(); ++b) {
      if (!grouped[b] && signatures[a] == signatures[b]) {
        group.push_back(fleet[b].name);
        grouped[b] = true;
      }
    }
    result.agreement_groups.push_back(std::move(group));
  }
  return result;
}

// ---- Raw vs JPEG ---------------------------------------------------------------

RawVsJpegResult run_raw_vs_jpeg(Model& model,
                                const std::vector<PhoneProfile>& raw_fleet,
                                const std::vector<RawShot>& bank) {
  RawVsJpegResult result;
  std::vector<PhoneProfile> raw_capable;
  for (const PhoneProfile& p : raw_fleet)
    if (p.supports_raw) {
      result.phone_names.push_back(p.name);
      raw_capable.push_back(p);
    }
  const auto phone_count = static_cast<int>(result.phone_names.size());
  ES_CHECK(phone_count >= 2);

  // Condition A: the phone's own pipeline output, delivered over the
  // (possibly lossy) link. Condition B: raw developed through one
  // consistent software ISP — raws never leave the lab, so only the
  // JPEG condition can lose shots.
  std::vector<Tensor> jpeg_inputs(bank.size());
  std::vector<unsigned char> jpeg_usable(bank.size(), 1);
  std::vector<Tensor> raw_inputs(bank.size());
  IspConfig consistent = magick_isp();
  drift_label_envs("phone_pipeline", result.phone_names);
  drift_label_envs("raw_pipeline", result.phone_names);
  telemetry_label_devices(result.phone_names);

  // Stimuli (drift items) fan out across lanes; each stimulus walks its
  // phones (drift environments) serially so the reference environment is
  // the same at every thread count.
  std::map<int, std::vector<std::size_t>> by_stimulus;
  for (std::size_t i = 0; i < bank.size(); ++i)
    by_stimulus[bank[i].stimulus].push_back(i);
  std::vector<const std::vector<std::size_t>*> stimulus_groups;
  stimulus_groups.reserve(by_stimulus.size());
  for (const auto& [stim, idx] : by_stimulus)
    stimulus_groups.push_back(&idx);

  runtime::parallel_for(
      stimulus_groups.size(),
      [&](std::size_t g) {
        for (std::size_t i : *stimulus_groups[g]) {
          const RawShot& rs = bank[i];
          ShotDelivery d = deliver_shot(
              "phone_pipeline", rs.phone_pipeline, rs.phone_index,
              raw_capable[static_cast<std::size_t>(rs.phone_index)]
                  .noise_stream,
              rs.stimulus, 0);
          jpeg_usable[i] = d.usable ? 1 : 0;
          if (d.usable) jpeg_inputs[i] = capture_to_input(d.image);
          // Same consistent ISP for every phone: residual per-stage
          // drift here is what the raws themselves disagree on
          // (sensor/exposure), the floor the §9.2 mitigation cannot
          // remove.
          ES_DRIFT_SCOPE("raw_pipeline", rs.stimulus, rs.phone_index);
          raw_inputs[i] = image_to_input(run_isp(rs.raw, consistent));
        }
      },
      /*grain=*/1);

  // Compact the surviving JPEG inputs for the batch classifier; identity
  // on a clean run.
  std::vector<std::size_t> jpeg_kept;
  jpeg_kept.reserve(bank.size());
  std::vector<int> jpeg_pred_of(bank.size(), -1);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    if (!jpeg_usable[i]) continue;
    jpeg_pred_of[i] = static_cast<int>(jpeg_kept.size());
    jpeg_kept.push_back(i);
  }
  result.jpeg_shots_lost =
      static_cast<int>(bank.size() - jpeg_kept.size());
  std::vector<Tensor> jpeg_batch(jpeg_kept.size());
  for (std::size_t j = 0; j < jpeg_kept.size(); ++j)
    jpeg_batch[j] = std::move(jpeg_inputs[jpeg_kept[j]]);

  Tensor jpeg_logits, raw_logits;
  std::vector<ShotPrediction> jpeg_preds;
  if (!jpeg_kept.empty())
    jpeg_preds = classify_inputs(model, jpeg_batch, 3, &jpeg_logits);
  std::vector<ShotPrediction> raw_preds =
      classify_inputs(model, raw_inputs, 3, &raw_logits);
  if (obs::drift_enabled()) {
    auto& auditor = obs::DriftAuditor::global();
    const auto d = static_cast<std::size_t>(raw_logits.dim(1));
    for (std::size_t i = 0; i < bank.size(); ++i) {
      if (jpeg_pred_of[i] >= 0)
        auditor.record_logits(
            "phone_pipeline", bank[i].stimulus, bank[i].phone_index,
            std::span<const float>(
                jpeg_logits.raw() +
                    static_cast<std::size_t>(jpeg_pred_of[i]) * d,
                d));
      auditor.record_logits(
          "raw_pipeline", bank[i].stimulus, bank[i].phone_index,
          std::span<const float>(raw_logits.raw() + i * d, d));
    }
  }

  std::vector<Observation> jpeg_obs, raw_obs;
  std::vector<int> jpeg_correct(static_cast<std::size_t>(phone_count), 0);
  std::vector<int> raw_correct(static_cast<std::size_t>(phone_count), 0);
  std::vector<int> jpeg_counts(static_cast<std::size_t>(phone_count), 0);
  std::vector<int> raw_counts(static_cast<std::size_t>(phone_count), 0);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const RawShot& rs = bank[i];
    Observation orw;
    orw.item = rs.stimulus;  // compare *between phones*
    orw.env = rs.phone_index;
    orw.class_id = rs.class_id;
    orw.predicted = raw_preds[i].predicted();
    orw.confidence = raw_preds[i].confidence();
    orw.correct = topk_correct(raw_preds[i], rs.class_id, 1);
    raw_obs.push_back(orw);
    ++raw_counts[static_cast<std::size_t>(rs.phone_index)];
    if (orw.correct) ++raw_correct[static_cast<std::size_t>(rs.phone_index)];

    if (jpeg_pred_of[i] < 0) continue;  // lost in delivery
    const ShotPrediction& jp =
        jpeg_preds[static_cast<std::size_t>(jpeg_pred_of[i])];
    Observation oj = orw;
    oj.predicted = jp.predicted();
    oj.confidence = jp.confidence();
    oj.correct = topk_correct(jp, rs.class_id, 1);
    jpeg_obs.push_back(oj);
    ++jpeg_counts[static_cast<std::size_t>(rs.phone_index)];
    if (oj.correct) ++jpeg_correct[static_cast<std::size_t>(rs.phone_index)];
  }

  result.jpeg_instability = compute_instability(jpeg_obs);
  result.raw_instability = compute_instability(raw_obs);
  result.jpeg_by_class = instability_by_class(jpeg_obs);
  result.raw_by_class = instability_by_class(raw_obs);
  drift_audit_flips("phone_pipeline", jpeg_obs);
  drift_audit_flips("raw_pipeline", raw_obs);
  telemetry_record_observations(jpeg_obs);
  telemetry_record_observations(raw_obs);
  for (int p = 0; p < phone_count; ++p) {
    result.jpeg_accuracy_by_phone.push_back(
        jpeg_correct[static_cast<std::size_t>(p)] /
        std::max(static_cast<double>(
                     jpeg_counts[static_cast<std::size_t>(p)]),
                 1.0));
    result.raw_accuracy_by_phone.push_back(
        raw_correct[static_cast<std::size_t>(p)] /
        std::max(
            static_cast<double>(raw_counts[static_cast<std::size_t>(p)]),
            1.0));
  }
  return result;
}

}  // namespace edgestab
