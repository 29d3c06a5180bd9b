// Experiment harness — one entry point per experiment family in the
// paper (§3.3): end-to-end (§4), compression (§5), ISP (§6), and
// OS/processor (§7), plus the raw-capture (§9.2) and top-k (§9.3)
// mitigations. Each returns a structured result that the bench binaries
// print in the paper's table/figure shapes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/confidence.h"
#include "core/instability.h"
#include "core/resilience.h"
#include "data/lab_rig.h"
#include "isp/software_isp.h"
#include "nn/model.h"

namespace edgestab {

/// Top-k classification of one model input.
struct ShotPrediction {
  std::vector<int> topk;          ///< class ids, best first (size >= 3)
  std::vector<double> topk_conf;  ///< matching probabilities
  int predicted() const { return topk.front(); }
  double confidence() const { return topk_conf.front(); }
};

/// Classify a batch of [1,3,S,S] inputs. When `logits_out` is non-null
/// it receives the raw logit matrix [N, classes] (the drift auditor
/// compares logits across environments before softmax flattens them).
std::vector<ShotPrediction> classify_inputs(
    const Model& model, const std::vector<Tensor>& inputs, int k = 3,
    Tensor* logits_out = nullptr);

/// Whether any of the first `k` predictions is (alias-)correct.
bool topk_correct(const ShotPrediction& pred, int truth, int k);

// ---- End-to-end experiment (§4, Figures 3-4, Figure 9) ---------------------

struct EndToEndResult {
  std::vector<std::string> phone_names;
  std::vector<double> accuracy_by_phone;                    // Fig 3a
  InstabilityResult overall;                                // §4.1 headline
  std::map<int, InstabilityResult> by_class;                // Fig 3b
  std::map<int, InstabilityResult> by_angle;                // Fig 3c
  std::vector<double> within_phone_instability;             // Fig 3d
  std::vector<Observation> observations;                    // top-1
  std::vector<Observation> observations_top3;               // Fig 9
  InstabilityResult overall_top3;                           // Fig 9b
  std::vector<double> accuracy_by_phone_top3;               // Fig 9a
  /// Fault accounting for degraded runs (trivial when faults are off):
  /// which shots were lost or quarantined and how many environments
  /// actually observed each item.
  FleetResilienceStats resilience;
};

/// Runs the lab rig over the fleet and classifies every shot with the
/// standard decoder. When `rig.shots_per_stimulus > 1`, repeat shots feed
/// the within-phone instability numbers (Fig 3d). Under fault injection
/// the run degrades gracefully: lost shots are retried per the plan,
/// devices are quarantined after K consecutive losses, and the metrics
/// are computed over whatever coverage survives (see `resilience`).
EndToEndResult run_end_to_end(Model& model,
                              const std::vector<PhoneProfile>& fleet,
                              const LabRigConfig& rig);

// ---- Raw photo bank (shared by §5 / §6 / §9.2) ------------------------------

/// One raw photo with the identity of the shot that produced it.
struct RawShot {
  int item = 0;      ///< unique photo id (compression/ISP experiments)
  int stimulus = 0;  ///< displayed-image id shared across phones (§9.2)
  int class_id = 0;
  int phone_index = 0;  ///< within the raw-capable sub-fleet
  RawImage raw;
  Capture phone_pipeline;  ///< what the phone's own pipeline stored
};

/// Photograph the rig stimuli with the raw-capable phones (Samsung and
/// iPhone analogues) capturing both the phone-pipeline file and raw.
std::vector<RawShot> collect_raw_bank(
    const std::vector<PhoneProfile>& fleet, const LabRigConfig& rig);

// ---- Compression experiments (§5, Tables 2-3) -------------------------------

struct CompressionCondition {
  std::string label;       ///< e.g. "JPEG 85"
  double avg_size_bytes = 0.0;
  double accuracy = 0.0;
};

struct CompressionResult {
  std::vector<CompressionCondition> conditions;
  InstabilityResult instability;  ///< across all conditions
};

/// Table 2: same software-developed raw photos re-encoded as JPEG at the
/// given qualities.
CompressionResult run_jpeg_quality_experiment(
    Model& model, const std::vector<RawShot>& bank,
    const std::vector<int>& qualities);

/// Table 3: same photos re-encoded in each format at its default
/// parameters.
CompressionResult run_format_experiment(Model& model,
                                        const std::vector<RawShot>& bank);

// ---- ISP experiment (§6, Table 4) -------------------------------------------

struct IspResult {
  std::vector<std::string> isp_names;
  std::vector<double> accuracy;
  InstabilityResult instability;
};

/// Convert every raw with each software ISP and compare classifications.
IspResult run_isp_experiment(Model& model, const std::vector<RawShot>& bank,
                             const std::vector<IspConfig>& software_isps);

// ---- OS / processor experiment (§7, Table 5) --------------------------------

struct OsCpuResult {
  std::vector<std::string> phone_names;
  std::vector<std::string> soc_names;
  InstabilityResult jpeg_instability;
  InstabilityResult png_instability;
  /// MD5 of each phone's concatenated decoded-JPEG pixel buffers — the
  /// paper's §7 audit that traced divergence to OS decoding.
  std::vector<std::string> jpeg_decode_md5;
  std::vector<std::string> png_decode_md5;
  /// Phones grouped by identical (prediction, confidence) streams.
  std::vector<std::vector<std::string>> agreement_groups;
};

struct OsCpuConfig {
  int images_per_class = 20;
  int scene_size = 96;
  int jpeg_quality = 85;
  std::uint64_t seed = 77;
};

/// Fixed pre-encoded image set; every Firebase-fleet phone decodes with
/// its own OS decoder and infers with its own compute backend.
OsCpuResult run_os_cpu_experiment(Model& model,
                                  const std::vector<PhoneProfile>& fleet,
                                  const OsCpuConfig& config);

// ---- Raw vs JPEG mitigation (§9.2, Figure 8) --------------------------------

struct RawVsJpegResult {
  std::vector<std::string> phone_names;
  // Condition 0: phone-pipeline files; condition 1: raw -> consistent ISP.
  InstabilityResult jpeg_instability;
  InstabilityResult raw_instability;
  std::map<int, InstabilityResult> jpeg_by_class;
  std::map<int, InstabilityResult> raw_by_class;
  std::vector<double> jpeg_accuracy_by_phone;
  std::vector<double> raw_accuracy_by_phone;
  /// Phone-pipeline files lost in (faulted) delivery after retries; the
  /// raw condition never crosses the lossy link.
  int jpeg_shots_lost = 0;
};

RawVsJpegResult run_raw_vs_jpeg(Model& model,
                                const std::vector<PhoneProfile>& raw_fleet,
                                const std::vector<RawShot>& bank);

}  // namespace edgestab
