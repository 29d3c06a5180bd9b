// Codec interface and registry.
//
// The paper's §5 instability comes from the same raw image being saved by
// different phones in different lossy formats (JPEG on Android, HEIF on
// iPhone) or qualities. Each codec here is a real transform codec with its
// own artifact structure and measured (not modeled) output sizes.
#pragma once

#include <memory>
#include <new>
#include <string>

#include "codec/status.h"
#include "image/image.h"
#include "util/bytes.h"
#include "util/check.h"

namespace edgestab {

enum class ImageFormat {
  kJpegLike,  ///< 8x8 DCT, 4:2:0 chroma, Huffman — "JPEG"
  kPngLike,   ///< per-row filters + LZ + Huffman, lossless — "PNG"
  kWebpLike,  ///< 8x8 transform + spatial prediction — "WebP"
  kHeifLike,  ///< 16x16 DCT + DC intra prediction — "HEIF"
};

std::string format_name(ImageFormat format);

/// Outcome of a decode attempt on untrusted bytes. `image` is valid only
/// when ok(); otherwise `status`/`message` describe the malformation.
struct DecodeResult {
  DecodeStatus status = DecodeStatus::kOk;
  std::string message;  ///< empty on success
  ImageU8 image;

  bool ok() const { return status == DecodeStatus::kOk; }
};

namespace codec_detail {

/// Run a decode body, trapping typed decode errors plus any residual
/// invariant violation or allocation blow-up a hostile payload can still
/// provoke in deeper layers, and fold them into a DecodeResult. Decoders
/// must never abort on data.
template <typename Fn>
DecodeResult guarded_decode(const char* codec_name, Fn&& body) {
  DecodeResult result;
  try {
    result.image = body();
  } catch (const DecodeError& e) {
    result.status = e.status();
    result.message = std::string(codec_name) + ": " + e.what();
  } catch (const CheckError& e) {
    result.status = DecodeStatus::kCorrupt;
    result.message = std::string(codec_name) + ": " + e.what();
  } catch (const std::length_error&) {
    result.status = DecodeStatus::kCorrupt;
    result.message =
        std::string(codec_name) + ": oversized allocation on malformed input";
  } catch (const std::bad_alloc&) {
    result.status = DecodeStatus::kCorrupt;
    result.message =
        std::string(codec_name) + ": allocation failure on malformed input";
  }
  return result;
}

}  // namespace codec_detail

/// A compressor/decompressor for interleaved 3-channel 8-bit images.
///
/// Decoding is split into two entry points: try_decode (the virtual) is
/// total over arbitrary bytes and returns a typed DecodeResult; decode is
/// a thin aborting wrapper for callers that hold bytes they themselves
/// encoded, where failure is a programmer error rather than bad data.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual Bytes encode(const ImageU8& image) const = 0;

  /// Decode untrusted bytes. Never throws on malformed input; returns a
  /// DecodeResult carrying either the image or a typed failure.
  virtual DecodeResult try_decode(std::span<const std::uint8_t> data) const = 0;

  /// Decode trusted bytes; aborts (CheckError) on malformation.
  ImageU8 decode(std::span<const std::uint8_t> data) const;

  virtual std::string name() const = 0;
  virtual bool lossless() const { return false; }
};

/// Create a codec. `quality` in [1,100]; ignored by the lossless PNG-like
/// codec. Passing kDefaultQuality selects each format's default operating
/// point (what "default compression parameters" meant in the paper's
/// Table 3): JPEG 90, WebP 60, HEIF 60.
/// Throws DecodeError(kUnknownFormat) for out-of-enum format values so
/// callers on the decode path can degrade instead of dying.
inline constexpr int kDefaultQuality = -1;
std::unique_ptr<Codec> make_codec(ImageFormat format,
                                  int quality = kDefaultQuality);

/// Nonthrowing registry lookup: nullptr for out-of-enum format values.
std::unique_ptr<Codec> try_make_codec(ImageFormat format,
                                      int quality = kDefaultQuality);

}  // namespace edgestab
