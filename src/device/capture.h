// The photo-taking path: displayed scene -> optics -> sensor -> ISP ->
// storage codec. Mirrors the paper's lab rig where each phone photographs
// the same image shown on a monitor (§3.2, Figure 2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "device/phone.h"
#include "image/image.h"
#include "obs/fault_ledger.h"
#include "util/rng.h"

namespace edgestab {

/// A stored photo: compressed bytes + the format they are in, plus the
/// raw mosaic when the phone supports raw capture (§9.2).
struct Capture {
  Bytes file;
  ImageFormat format = ImageFormat::kJpegLike;
  int quality = 0;
  std::optional<RawImage> raw;
};

/// Photograph `screen_emission` (linear-light radiance of the displayed
/// image, any resolution) with the given phone. `rng` drives temporal
/// sensor noise — two calls with the same phone and scene model two
/// consecutive shots (Figure 1). Exactly phone_signal() then
/// photograph().
Capture take_photo(const PhoneProfile& phone, const Image& screen_emission,
                   Pcg32& rng);

/// The noise-free half of take_photo: frame the emission through the
/// phone's mount (its small geometric offset/tilt), then sensor_signal()
/// it with the phone's sensor. Depends only on the phone and the
/// emission, so a caller that photographs one scene many times computes
/// it once.
Image phone_signal(const PhoneProfile& phone, const Image& screen_emission);

/// The per-shot half of take_photo: sample the sensor noise and ADC over
/// a phone_signal() map, develop the raw mosaic with the phone's ISP and
/// store it with the phone's codec. The raw mosaic is kept only when the
/// phone supports raw.
Capture photograph(const PhoneProfile& phone, const Image& signal,
                   Pcg32& rng);

/// Capture-site fault draws for one shot (src/fault). A dropout loses
/// the frame outright (not retryable — the emission has moved on); a
/// transient device failure is retried up to the plan's attempt budget
/// with recorded (never slept) backoff. Pure function of the fault seed
/// and the shot coordinates: `stream` keys the draws (the phone's
/// noise_stream), `device`/`item`/`rep` label the receipts. The caller
/// files `events` with its own ledger; call only while the global
/// injector is enabled.
struct CaptureFaults {
  std::vector<obs::FaultEvent> events;
  int attempts = 1;   ///< capture attempts consumed
  bool lost = false;  ///< no usable frame: dropout or every attempt failed
};
CaptureFaults draw_capture_faults(std::uint64_t stream, int device, int item,
                                  int rep);

/// Decode a capture's stored bytes with a given OS decoder behaviour
/// (inference may happen on a different device than the one that took
/// the photo). Aborts (CheckError) on malformed bytes — use
/// try_decode_capture when the payload may have been corrupted in
/// transit.
ImageU8 decode_capture(const Capture& capture,
                       const JpegDecodeOptions& os_decoder);

/// Total variant of decode_capture for untrusted payloads: malformed
/// bytes, an empty capture (dropout) or an out-of-enum format come back
/// as a typed DecodeResult instead of killing the process.
DecodeResult try_decode_capture(const Capture& capture,
                                const JpegDecodeOptions& os_decoder);

/// Convert a raw capture with a software ISP (the §9.2 consistent
/// pipeline), producing a display-referred image.
Image develop_raw(const RawImage& raw, const IspConfig& software_isp);

}  // namespace edgestab
