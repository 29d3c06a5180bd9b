// WebP-like codec: per-8x8-block spatial prediction (DC / horizontal /
// vertical, chosen by residual energy) from *reconstructed* neighbors,
// 8x8 DCT of the residual, flat quality-scaled quantization, run/size +
// Huffman entropy coding. Small files, prediction-style artifacts —
// distinctly different reconstruction errors from the DCT-only codecs.
#pragma once

#include "codec/codec.h"

namespace edgestab {

class WebpLikeCodec : public Codec {
 public:
  explicit WebpLikeCodec(int quality = 75);

  Bytes encode(const ImageU8& image) const override;
  DecodeResult try_decode(std::span<const std::uint8_t> data) const override;
  std::string name() const override {
    return "webp_like(q=" + std::to_string(quality_) + ")";
  }

 private:
  ImageU8 decode_impl(std::span<const std::uint8_t> data) const;

  int quality_;
};

}  // namespace edgestab
