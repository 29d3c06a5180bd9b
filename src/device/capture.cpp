#include "device/capture.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "fault/fault.h"
#include "image/resize.h"
#include "obs/obs.h"

namespace edgestab {

namespace {

// EDGESTAB_PERF_CANARY_MS injects a per-shot sleep into photograph(),
// the one per-shot function every capture path calls: a known slowdown
// that changes no pixels, used by the regression gate to prove the
// sentinel flags wall-time regressions without touching digests.
// 0 / unset = off.
int perf_canary_ms() {
  static const int ms = [] {
    const char* env = std::getenv("EDGESTAB_PERF_CANARY_MS");
    return env != nullptr ? std::atoi(env) : 0;
  }();
  return ms;
}

}  // namespace

Capture take_photo(const PhoneProfile& phone, const Image& screen_emission,
                   Pcg32& rng) {
  ES_TRACE_SCOPE("device", "take_photo");
  return photograph(phone, phone_signal(phone, screen_emission), rng);
}

Image phone_signal(const PhoneProfile& phone, const Image& screen_emission) {
  if (phone.mount_dx == 0.0f && phone.mount_dy == 0.0f &&
      phone.mount_tilt == 0.0f)
    return sensor_signal(screen_emission, phone.sensor);
  // The warp maps output (sensor-facing) coordinates to screen
  // coordinates.
  Image framed;
  {
    ES_TRACE_SCOPE("device", "frame_warp");
    float cx = static_cast<float>(screen_emission.width()) / 2.0f;
    float cy = static_cast<float>(screen_emission.height()) / 2.0f;
    Affine warp = Affine::rotate_about(phone.mount_tilt, cx, cy)
                      .compose(Affine::translate(phone.mount_dx,
                                                 phone.mount_dy));
    framed = warp_affine(screen_emission, warp, screen_emission.width(),
                         screen_emission.height());
  }
  return sensor_signal(framed, phone.sensor);
}

Capture photograph(const PhoneProfile& phone, const Image& signal,
                   Pcg32& rng) {
  if (int ms = perf_canary_ms(); ms > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  RawImage raw = sample_sensor(signal, phone.sensor, rng);
  Image developed = run_isp(raw, phone.isp);

  Capture capture;
  capture.format = phone.storage_format;
  capture.quality = phone.storage_quality;
  {
    ES_TRACE_SCOPE("device", "store_file");
    auto codec = make_codec(phone.storage_format, phone.storage_quality);
    capture.file = codec->encode(to_u8(developed));
  }
  if (phone.supports_raw) capture.raw = std::move(raw);
  ES_COUNT("device.shots_captured", 1);
  return capture;
}

CaptureFaults draw_capture_faults(std::uint64_t stream, int device, int item,
                                  int rep) {
  using obs::FaultEvent;
  using obs::FaultEventKind;
  const auto& injector = fault::FaultInjector::global();
  const auto item_u = static_cast<std::uint64_t>(item);
  const auto rep_u = static_cast<std::uint64_t>(rep);
  CaptureFaults out;
  if (injector.capture_dropout(stream, item_u, rep_u)) {
    out.lost = true;
    out.events.push_back({FaultEventKind::kCaptureDropout, device, item, rep,
                          0, false, 0.0});
    out.events.push_back(
        {FaultEventKind::kShotLost, device, item, rep, 0, false, 1.0});
    return out;
  }
  const int max_attempts = std::max(1, injector.plan().max_attempts);
  int attempt = 0;
  while (attempt < max_attempts &&
         injector.transient_failure(stream, item_u, rep_u, attempt)) {
    out.events.push_back({FaultEventKind::kTransientFailure, device, item,
                          rep, attempt, false, 0.0});
    ++attempt;
    if (attempt < max_attempts)
      out.events.push_back({FaultEventKind::kRetry, device, item, rep,
                            attempt, false, injector.backoff_ms(attempt)});
  }
  const bool recovered = attempt < max_attempts;
  for (FaultEvent& e : out.events) e.recovered = recovered;
  out.attempts = recovered ? attempt + 1 : attempt;
  if (!recovered) {
    out.lost = true;
    out.events.push_back({FaultEventKind::kShotLost, device, item, rep,
                          attempt - 1, false, static_cast<double>(attempt)});
  }
  return out;
}

ImageU8 decode_capture(const Capture& capture,
                       const JpegDecodeOptions& os_decoder) {
  ES_TRACE_SCOPE("device", "decode_capture");
  if (capture.format == ImageFormat::kJpegLike) {
    JpegLikeCodec codec(capture.quality, os_decoder);
    return codec.decode(capture.file);
  }
  auto codec = make_codec(capture.format, capture.quality);
  return codec->decode(capture.file);
}

DecodeResult try_decode_capture(const Capture& capture,
                                const JpegDecodeOptions& os_decoder) {
  ES_TRACE_SCOPE("device", "decode_capture");
  try {
    if (capture.format == ImageFormat::kJpegLike) {
      // Constructing the codec validates the quality field, which on a
      // dropped or mangled capture may itself be garbage.
      JpegLikeCodec codec(capture.quality, os_decoder);
      return codec.try_decode(capture.file);
    }
    auto codec = try_make_codec(capture.format, capture.quality);
    if (!codec) {
      DecodeResult result;
      result.status = DecodeStatus::kUnknownFormat;
      result.message = "unknown storage format " +
                       std::to_string(static_cast<int>(capture.format));
      return result;
    }
    return codec->try_decode(capture.file);
  } catch (const CheckError& e) {
    DecodeResult result;
    result.status = DecodeStatus::kBadHeader;
    result.message = e.what();
    return result;
  }
}

Image develop_raw(const RawImage& raw, const IspConfig& software_isp) {
  ES_TRACE_SCOPE("device", "develop_raw");
  return run_isp(raw, software_isp);
}

}  // namespace edgestab
