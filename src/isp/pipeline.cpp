#include "isp/pipeline.h"

#include "obs/drift.h"
#include "obs/obs.h"
#include "util/hashing.h"

namespace edgestab {

// The ES_DRIFT_STAGE taps feed the divergence auditor after each of the
// 7 RGB stages (black_level operates on the raw mosaic and has no RGB
// artifact to compare): under an active ES_DRIFT_SCOPE, each
// environment's intermediate is compared against the reference
// environment's for the same stimulus — the per-stage attribution the
// drift report's "drift by ISP stage" table is built from.
Image run_isp(const RawImage& raw, const IspConfig& config) {
  ES_TRACE_SCOPE("isp", "pipeline");
  RawImage work = raw;
  {
    ES_TRACE_SCOPE("isp", "black_level");
    black_level_subtract(work);
  }
  Image rgb;
  {
    ES_TRACE_SCOPE("isp", "demosaic");
    rgb = demosaic(work, config.demosaic_kind);
  }
  ES_DRIFT_STAGE(0, "demosaic", rgb);
  {
    ES_TRACE_SCOPE("isp", "white_balance");
    switch (config.wb_mode) {
      case WhiteBalanceMode::kPreset:
        white_balance_preset(rgb, config.wb_gains);
        break;
      case WhiteBalanceMode::kGrayWorld:
        white_balance_gray_world(rgb);
        break;
    }
  }
  ES_DRIFT_STAGE(1, "white_balance", rgb);
  {
    ES_TRACE_SCOPE("isp", "color_correct");
    color_correct(rgb, config.ccm);
  }
  ES_DRIFT_STAGE(2, "color_correct", rgb);
  {
    ES_TRACE_SCOPE("isp", "denoise");
    denoise_box(rgb, config.denoise_radius, config.denoise_strength);
  }
  ES_DRIFT_STAGE(3, "denoise", rgb);
  {
    ES_TRACE_SCOPE("isp", "tone_map");
    tone_map(rgb, config.gamma, config.s_curve);
  }
  ES_DRIFT_STAGE(4, "tone_map", rgb);
  {
    ES_TRACE_SCOPE("isp", "sharpen");
    sharpen_unsharp(rgb, config.sharpen_radius, config.sharpen_amount);
  }
  ES_DRIFT_STAGE(5, "sharpen", rgb);
  {
    ES_TRACE_SCOPE("isp", "saturate");
    saturate(rgb, config.saturation);
  }
  ES_DRIFT_STAGE(6, "saturate", rgb);
  return rgb;
}

std::uint64_t isp_digest(const IspConfig& config) {
  Fingerprint fp;
  fp.add("isp-config-v1");
  fp.add(config.name);
  fp.add(static_cast<int>(config.demosaic_kind));
  fp.add(static_cast<int>(config.wb_mode));
  for (float g : config.wb_gains) fp.add(static_cast<double>(g));
  for (float c : config.ccm) fp.add(static_cast<double>(c));
  fp.add(config.denoise_radius)
      .add(static_cast<double>(config.denoise_strength));
  fp.add(static_cast<double>(config.gamma))
      .add(static_cast<double>(config.s_curve));
  fp.add(config.sharpen_radius)
      .add(static_cast<double>(config.sharpen_amount));
  fp.add(static_cast<double>(config.saturation));
  return fp.value();
}

}  // namespace edgestab
