#include "codec/jpeg_like.h"

#include <algorithm>
#include <array>

#include "codec/coeffs.h"
#include "codec/dct.h"
#include "codec/planes.h"
#include "obs/obs.h"

namespace edgestab {

namespace {

using codec_detail::ChromaUpsample;
using codec_detail::Plane;
using codec_detail::YccPlanes;
using codec_detail::dequantize_block;
using codec_detail::load_block;
using codec_detail::make_plane;
using codec_detail::pad_to;
using codec_detail::planes_to_rgb;
using codec_detail::quantize_block;
using codec_detail::rgb_to_planes;

constexpr std::uint32_t kMagic = 0x4a4c;  // "JL"

// ITU-T T.81 Annex K base quantization tables.
constexpr std::array<int, 64> kLumaQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, 64> kChromaQuant = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

/// libjpeg quality scaling, as float quantizer steps in zigzag order.
std::array<float, 64> scaled_quant(const std::array<int, 64>& base,
                                   int quality) {
  int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<float, 64> out{};
  for (std::size_t i = 0; i < 64; ++i) {
    int q = (base[i] * scale + 50) / 100;
    out[i] = static_cast<float>(std::clamp(q, 1, 255));
  }
  return out;
}

/// Quantized zigzag coefficients of one plane in block raster order.
struct QuantizedPlane {
  int blocks_x = 0, blocks_y = 0;
  std::vector<std::array<int, 64>> blocks;
};

QuantizedPlane quantize_plane(const Plane& plane,
                              const std::array<float, 64>& steps) {
  QuantizedPlane qp;
  qp.blocks_x = pad_to(plane.w, 8) / 8;
  qp.blocks_y = pad_to(plane.h, 8) / 8;
  qp.blocks.reserve(static_cast<std::size_t>(qp.blocks_x) * qp.blocks_y);
  float block[64], coeffs[64];
  for (int by = 0; by < qp.blocks_y; ++by)
    for (int bx = 0; bx < qp.blocks_x; ++bx) {
      load_block(plane, bx * 8, by * 8, 8, block);
      fdct_2d(block, coeffs, 8);
      quantize_block(coeffs, steps.data(), 8, qp.blocks.emplace_back().data());
    }
  return qp;
}

Plane dequantize_plane(const QuantizedPlane& qp, int w, int h,
                       const std::array<float, 64>& steps, bool fixed_idct) {
  Plane plane = make_plane(w, h);
  float coeffs[64], block[64];
  std::size_t bi = 0;
  for (int by = 0; by < qp.blocks_y; ++by)
    for (int bx = 0; bx < qp.blocks_x; ++bx, ++bi) {
      dequantize_block(qp.blocks[bi].data(), steps.data(), 8, coeffs);
      if (fixed_idct) {
        idct8_fixed(coeffs, block);
      } else {
        idct_2d(coeffs, block, 8);
      }
      const int x0 = bx * 8;
      const int y0 = by * 8;
      const int cols = std::min(8, w - x0);
      for (int y = 0; y < 8 && y0 + y < h; ++y)
        std::copy_n(block + y * 8, cols, &plane.at(x0, y0 + y));
    }
  return plane;
}

}  // namespace

JpegLikeCodec::JpegLikeCodec(int quality, JpegDecodeOptions decode_options)
    : quality_(quality), decode_options_(decode_options) {
  ES_CHECK_MSG(quality >= 1 && quality <= 100,
               "jpeg quality out of range: " << quality);
}

std::string JpegLikeCodec::name() const {
  return "jpeg_like(q=" + std::to_string(quality_) + ")";
}

Bytes JpegLikeCodec::encode(const ImageU8& image) const {
  ES_TRACE_SCOPE("codec", "jpeg_encode");
  ES_CHECK(image.channels() == 3);
  const int w = image.width();
  const int h = image.height();

  YccPlanes planes = rgb_to_planes(image);
  auto luma_q = scaled_quant(kLumaQuant, quality_);
  auto chroma_q = scaled_quant(kChromaQuant, quality_);
  QuantizedPlane qy = quantize_plane(planes.y, luma_q);
  QuantizedPlane qcb = quantize_plane(planes.cb, chroma_q);
  QuantizedPlane qcr = quantize_plane(planes.cr, chroma_q);

  std::vector<std::uint64_t> dc_freq(12, 0), ac_freq(256, 0);
  for (const QuantizedPlane* qp : {&qy, &qcb, &qcr}) {
    int prev_dc = 0;
    for (const auto& block : qp->blocks)
      codec_detail::count_block_tokens(block, prev_dc, dc_freq, ac_freq);
  }
  HuffmanTable dc_table = HuffmanTable::from_frequencies(dc_freq);
  HuffmanTable ac_table = HuffmanTable::from_frequencies(ac_freq);

  BitWriter bw;
  bw.put(kMagic, 16);
  bw.put(static_cast<std::uint32_t>(w), 16);
  bw.put(static_cast<std::uint32_t>(h), 16);
  bw.put(static_cast<std::uint32_t>(quality_), 8);
  dc_table.write_table(bw);
  ac_table.write_table(bw);
  for (const QuantizedPlane* qp : {&qy, &qcb, &qcr}) {
    int prev_dc = 0;
    for (const auto& block : qp->blocks)
      codec_detail::encode_block(block, prev_dc, dc_table, ac_table, bw);
  }
  Bytes out = bw.finish();
  ES_COUNT("codec.bytes_encoded", out.size());
  return out;
}

DecodeResult JpegLikeCodec::try_decode(
    std::span<const std::uint8_t> data) const {
  return codec_detail::guarded_decode(
      "jpeg_like", [&] { return decode_impl(data); });
}

ImageU8 JpegLikeCodec::decode_impl(std::span<const std::uint8_t> data) const {
  ES_TRACE_SCOPE("codec", "jpeg_decode");
  BitReader br(data);
  ES_DECODE_CHECK(br.get(16) == kMagic, DecodeStatus::kBadMagic,
                  "bad magic");
  int w = static_cast<int>(br.get(16));
  int h = static_cast<int>(br.get(16));
  int quality = static_cast<int>(br.get(8));
  ES_DECODE_CHECK(w > 0 && h > 0 && quality >= 1 && quality <= 100,
                  DecodeStatus::kBadHeader,
                  "bad header: " << w << "x" << h << " q=" << quality);
  HuffmanTable dc_table = HuffmanTable::read_table(br);
  HuffmanTable ac_table = HuffmanTable::read_table(br);

  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;

  auto read_plane = [&](int pw, int ph) {
    QuantizedPlane qp;
    qp.blocks_x = pad_to(pw, 8) / 8;
    qp.blocks_y = pad_to(ph, 8) / 8;
    // Each block consumes at least a DC code + EOB (2 bits); a stream too
    // short to possibly hold the plane is rejected before the block
    // vector grows, bounding memory on fuzzed headers.
    ES_DECODE_CHECK(br.bits_remaining() >=
                        2 * static_cast<std::size_t>(qp.blocks_x) *
                            static_cast<std::size_t>(qp.blocks_y),
                    DecodeStatus::kTruncated, "plane data truncated");
    // The vector then grows only as blocks decode: a corrupt header's
    // block count is never allocated up front.
    const auto n_blocks = static_cast<std::size_t>(qp.blocks_x) * qp.blocks_y;
    int prev_dc = 0;
    for (std::size_t b = 0; b < n_blocks; ++b)
      codec_detail::decode_block(qp.blocks.emplace_back(), prev_dc, dc_table,
                                 ac_table, br);
    return qp;
  };

  QuantizedPlane qy = read_plane(w, h);
  QuantizedPlane qcb = read_plane(cw, ch);
  QuantizedPlane qcr = read_plane(cw, ch);

  auto luma_q = scaled_quant(kLumaQuant, quality);
  auto chroma_q = scaled_quant(kChromaQuant, quality);
  bool fx = decode_options_.fixed_point_idct;
  YccPlanes planes;
  planes.y = dequantize_plane(qy, w, h, luma_q, fx);
  planes.cb = dequantize_plane(qcb, cw, ch, chroma_q, fx);
  planes.cr = dequantize_plane(qcr, cw, ch, chroma_q, fx);

  auto upsample =
      decode_options_.upsample == JpegDecodeOptions::Upsample::kNearest
          ? ChromaUpsample::kNearest
          : ChromaUpsample::kBilinear;
  return planes_to_rgb(planes, w, h, upsample);
}

}  // namespace edgestab
