// Divergence auditor — per-stage drift attribution across the fleet.
//
// The paper attributes cross-device prediction divergence to pipeline
// stages (compression, ISP, OS/processor — §5). This auditor makes that
// attribution observable in every bench: while an experiment replays the
// *same* stimulus through several environments, taps inside the ISP and
// the classifier compare each environment's intermediate artifact
// against the first environment that produced one (the reference phone)
// and fold the divergence into the auditor's own per-slot histograms:
//
//   ES_DRIFT_SCOPE("capture", stimulus_id, phone_index);  // RAII context
//   ...
//   ES_DRIFT_STAGE(2, "white_balance", rgb);  // inside run_isp
//
// Stage taps record PSNR, SSIM and per-channel mean/variance deltas;
// logit taps (record_logits) record L2 / L-inf drift, KL divergence and
// top-1 agreement vs. the reference environment. The prediction-flip
// ledger (flip_ledger.h) rides along in the same auditor so exporters
// can emit one coherent <name>.drift.json + HTML fleet report.
//
// A disabled auditor costs one relaxed atomic load per tap.
//
// Memory: references are stored u8-quantized (the comparison target is
// the clamped [0,1] display range anyway) and capped per (group, stage).
// Caps are id-based so the audited set never depends on tap arrival
// order: an item is audited iff its id is below both max_audited_items
// and the slot's byte-derived cap (kMaxSlotRefBytes / reference image
// bytes). Taps beyond the caps are counted, not stored.
//
// Parallelism: taps may arrive from any thread. The expensive image
// comparisons (SSIM/MSE/channel stats) run outside the auditor mutex —
// stored references are immutable once inserted — and each comparison is
// staged as a per-(item, env) record; summaries fold the records in
// sorted (item, env) order, so the reported statistics are bit-identical
// at every thread count. The one ordering contract callers must keep:
// one item's environments tap serially (the reference is whichever env
// taps the item first). The parallel runtime therefore fans out across
// items, never across one item's environment sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "image/image.h"
#include "obs/flip_ledger.h"
#include "obs/metrics.h"

namespace edgestab::obs {

/// Accumulated distribution of one scalar drift metric.
struct DriftStat {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
  }
  double mean() const { return count > 0 ? sum / count : 0.0; }
};

/// Pairwise image drift accumulated for one (group, stage).
struct StageDriftSummary {
  std::string group;
  int stage_index = 0;
  std::string stage;
  DriftStat psnr_db;       ///< capped at kPsnrCapDb for identical images
  DriftStat ssim;
  DriftStat channel_mean_delta;  ///< mean over channels of |Δmean|
  DriftStat channel_var_delta;   ///< mean over channels of |Δvar|
  std::int64_t identical_pairs = 0;  ///< comparisons with zero MSE
  /// Quantile histograms in integer units: PSNR in milli-dB, SSIM loss
  /// (1 - SSIM) in ppm.
  HistogramSummary psnr_mdb;
  HistogramSummary ssim_loss_ppm;
};

/// Pairwise logit drift accumulated for one group.
struct LogitDriftSummary {
  std::string group;
  DriftStat l2;
  DriftStat linf;
  DriftStat kl;          ///< KL(softmax(ref) || softmax(cur))
  DriftStat top1_margin; ///< top1 - top2 logit gap of the *current* env
  std::int64_t comparisons = 0;
  std::int64_t top1_agree = 0;  ///< comparisons where argmax matched ref
  /// Quantile histograms of l2/linf/kl in micro-units.
  HistogramSummary l2_micro, linf_micro, kl_micro;
};

/// Thread-local tap context: which (group, item, env) subsequent
/// ES_DRIFT_STAGE taps on this thread belong to. Nestable; destructor
/// restores the previous context.
class DriftScope {
 public:
  DriftScope(const char* group, int item, int env);
  ~DriftScope();
  DriftScope(const DriftScope&) = delete;
  DriftScope& operator=(const DriftScope&) = delete;

 private:
  const char* prev_group_;
  int prev_item_;
  int prev_env_;
};

/// Divergence auditor, one per run session (obs/session.h).
/// Bookkeeping (slot/reference maps, staged comparison records) is
/// mutex-serialized; image comparisons run off-lock against immutable
/// stored references; `enabled()` is a relaxed atomic so disabled taps
/// stay cheap. Summaries fold staged
/// records in sorted (item, env) order — deterministic at any thread
/// count (see the file comment for the caller-side ordering contract).
class DriftAuditor {
 public:
  static constexpr double kPsnrCapDb = 99.0;
  static constexpr std::size_t kDefaultMaxAuditedItems = 256;
  static constexpr std::size_t kMaxSlotRefBytes = 32ull << 20;
  static constexpr std::size_t kMaxLogitRefs = 65536;

  /// The current session's auditor (obs/session.h).
  static DriftAuditor& global();

  DriftAuditor();
  ~DriftAuditor();  // the slot types are complete only in drift.cpp

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Cap on distinct items whose reference artifact is retained per
  /// (group, stage). The cap is on the item *id* (audited iff
  /// id < cap) so the audited set is arrival-order independent;
  /// comparisons for items beyond it are skipped and counted in
  /// skipped_items().
  void set_max_audited_items(std::size_t n);

  /// Human-readable environment label (phone / ISP / condition name)
  /// used by the report tables.
  void set_env_label(const std::string& group, int env,
                     const std::string& label);
  std::string env_label(const std::string& group, int env) const;

  /// Compare `rgb` for the current DriftScope context against the
  /// reference environment's artifact for the same (group, stage, item).
  /// The first environment to tap becomes the reference. No-op without
  /// an active scope or when disabled.
  void tap_stage(int stage_index, const char* stage_name, const Image& rgb);

  /// Compare one environment's logit vector for `item` against the
  /// reference environment's. The first environment recorded per
  /// (group, item) becomes the reference.
  void record_logits(const std::string& group, int item, int env,
                     std::span<const float> logits);

  FlipLedger& ledger() { return ledger_; }
  const FlipLedger& ledger() const { return ledger_; }
  /// Serialized wrapper so experiment code does not race report export.
  void record_flips(const std::string& group,
                    std::span<const FlipOutcome> outcomes);

  std::vector<StageDriftSummary> stage_summaries() const;
  std::vector<LogitDriftSummary> logit_summaries() const;
  std::int64_t skipped_items() const;
  std::int64_t skipped_bytes_items() const;


 private:
  struct StoredImage;
  struct StageKey;
  struct StageSlot;
  struct LogitSlot;

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::size_t max_audited_items_ = kDefaultMaxAuditedItems;
  std::size_t ref_bytes_ = 0;
  std::int64_t skipped_items_ = 0;
  std::int64_t skipped_bytes_items_ = 0;

  std::map<std::string, std::unique_ptr<StageSlot>> stages_;   // by group.stage
  std::map<std::string, std::unique_ptr<LogitSlot>> logits_;   // by group
  std::map<std::string, std::map<int, std::string>> env_labels_;
  FlipLedger ledger_;
};

/// True when the current session's auditor is enabled.
bool drift_enabled();

}  // namespace edgestab::obs

// drift.h is usable without the obs.h umbrella; keep the token-paste
// helper available either way (identical definition, no redefinition).
#ifndef ES_OBS_CONCAT
#define ES_OBS_CONCAT_INNER(a, b) a##b
#define ES_OBS_CONCAT(a, b) ES_OBS_CONCAT_INNER(a, b)
#endif

#define ES_DRIFT_SCOPE(group, item, env)                                   \
  ::edgestab::obs::DriftScope ES_OBS_CONCAT(es_drift_scope_,               \
                                            __LINE__)(group, item, env)

#define ES_DRIFT_STAGE(index, name, image)                                 \
  do {                                                                     \
    if (::edgestab::obs::DriftAuditor::global().enabled())                 \
      ::edgestab::obs::DriftAuditor::global().tap_stage(index, name,       \
                                                        image);            \
  } while (0)
