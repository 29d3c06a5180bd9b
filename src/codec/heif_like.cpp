#include "codec/heif_like.h"

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
using codec_detail::load_block;
using codec_detail::make_plane;
using codec_detail::pad_to;
using codec_detail::planes_to_rgb;
using codec_detail::rgb_to_planes;

constexpr std::uint32_t kMagic = 0x484c;  // "HL"
constexpr int kBlock = 16;
constexpr std::size_t kBlockArea = kBlock * kBlock;

/// Frequency-weighted quantization steps for 16x16 coefficients in
/// zigzag order: step(u, v) = base * (1 + slope * (u + v)), scaled by
/// quality.
std::array<float, kBlockArea> zigzag_steps(int quality, bool chroma) {
  int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  float base = (chroma ? 13.0f : 9.0f) * static_cast<float>(scale) / 100.0f;
  float slope = chroma ? 0.45f : 0.30f;
  const auto& zz = codec_detail::zigzag_order(kBlock);
  std::array<float, kBlockArea> steps{};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const int u = zz[i] % kBlock;
    const int v = zz[i] / kBlock;
    steps[i] = std::clamp(base * (1.0f + slope * static_cast<float>(u + v)),
                          1.0f, 1024.0f);
  }
  return steps;
}

/// Zigzag coefficients of one plane, kBlockArea per block in block
/// raster order.
struct CodedPlane {
  int blocks_x = 0, blocks_y = 0;
  std::vector<int> zz;

  std::size_t block_count() const {
    return static_cast<std::size_t>(blocks_x) * blocks_y;
  }
  std::span<int> block(std::size_t b) {
    return {zz.data() + b * kBlockArea, kBlockArea};
  }
  std::span<const int> block(std::size_t b) const {
    return {zz.data() + b * kBlockArea, kBlockArea};
  }
};

/// Flat prediction value from reconstructed top/left edges.
float predict_dc(const Plane& recon, int bx, int by) {
  const int x0 = bx * kBlock;
  const int y0 = by * kBlock;
  float sum = 0.0f;
  int count = 0;
  if (y0 > 0)
    for (int x = 0; x < kBlock; ++x) {
      sum += recon.at(x0 + x, y0 - 1);
      ++count;
    }
  if (x0 > 0)
    for (int y = 0; y < kBlock; ++y) {
      sum += recon.at(x0 - 1, y0 + y);
      ++count;
    }
  return count > 0 ? sum / static_cast<float>(count) : 0.0f;
}

/// Dequantize and inverse-transform block (bx, by) and write it, plus its
/// DC prediction, into `recon` — the encoder's reconstruction loop and
/// the decoder share it.
void reconstruct_block(std::span<const int> q,
                       const std::array<float, kBlockArea>& steps, float pred,
                       Plane& recon, int bx, int by) {
  float dq[kBlockArea], rec[kBlockArea];
  codec_detail::dequantize_block(q.data(), steps.data(), kBlock, dq);
  idct_2d(dq, rec, kBlock);
  for (int y = 0; y < kBlock; ++y) {
    float* row = &recon.at(bx * kBlock, by * kBlock + y);
    for (int x = 0; x < kBlock; ++x) row[x] = rec[y * kBlock + x] + pred;
  }
}

CodedPlane code_plane(const Plane& src, int quality, bool chroma) {
  const auto steps = zigzag_steps(quality, chroma);

  CodedPlane out;
  out.blocks_x = pad_to(src.w, kBlock) / kBlock;
  out.blocks_y = pad_to(src.h, kBlock) / kBlock;
  out.zz.resize(out.block_count() * kBlockArea);
  Plane recon = make_plane(out.blocks_x * kBlock, out.blocks_y * kBlock);

  float resid[kBlockArea], coeffs[kBlockArea];
  std::size_t bi = 0;
  for (int by = 0; by < out.blocks_y; ++by)
    for (int bx = 0; bx < out.blocks_x; ++bx, ++bi) {
      const float pred = predict_dc(recon, bx, by);
      load_block(src, bx * kBlock, by * kBlock, kBlock, resid);
      for (float& v : resid) v -= pred;
      fdct_2d(resid, coeffs, kBlock);
      const std::span<int> q = out.block(bi);
      codec_detail::quantize_block(coeffs, steps.data(), kBlock, q.data());
      reconstruct_block(q, steps, pred, recon, bx, by);
    }
  return out;
}

Plane decode_plane(const CodedPlane& cp, int w, int h, int quality,
                   bool chroma) {
  const auto steps = zigzag_steps(quality, chroma);
  Plane recon = make_plane(cp.blocks_x * kBlock, cp.blocks_y * kBlock);
  std::size_t bi = 0;
  for (int by = 0; by < cp.blocks_y; ++by)
    for (int bx = 0; bx < cp.blocks_x; ++bx, ++bi)
      reconstruct_block(cp.block(bi), steps, predict_dc(recon, bx, by), recon,
                        bx, by);
  Plane out = make_plane(w, h);
  for (int y = 0; y < h; ++y)
    std::copy_n(&recon.at(0, y), w, &out.at(0, y));
  return out;
}

}  // namespace

HeifLikeCodec::HeifLikeCodec(int quality) : quality_(quality) {
  ES_CHECK_MSG(quality >= 1 && quality <= 100,
               "heif quality out of range: " << quality);
}

Bytes HeifLikeCodec::encode(const ImageU8& image) const {
  ES_TRACE_SCOPE("codec", "heif_encode");
  ES_CHECK(image.channels() == 3);
  const int w = image.width();
  const int h = image.height();
  YccPlanes planes = rgb_to_planes(image);
  CodedPlane cy = code_plane(planes.y, quality_, false);
  CodedPlane ccb = code_plane(planes.cb, quality_, true);
  CodedPlane ccr = code_plane(planes.cr, quality_, true);

  std::vector<std::uint64_t> dc_freq(16, 0), ac_freq(256, 0);
  for (const CodedPlane* cp : {&cy, &ccb, &ccr}) {
    int prev_dc = 0;
    for (std::size_t b = 0; b < cp->block_count(); ++b)
      codec_detail::count_block_tokens(cp->block(b), prev_dc, dc_freq,
                                       ac_freq);
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
  for (const CodedPlane* cp : {&cy, &ccb, &ccr}) {
    int prev_dc = 0;
    for (std::size_t b = 0; b < cp->block_count(); ++b)
      codec_detail::encode_block(cp->block(b), prev_dc, dc_table, ac_table,
                                 bw);
  }
  Bytes out = bw.finish();
  ES_COUNT("codec.bytes_encoded", out.size());
  return out;
}

DecodeResult HeifLikeCodec::try_decode(
    std::span<const std::uint8_t> data) const {
  return codec_detail::guarded_decode(
      "heif_like", [&] { return decode_impl(data); });
}

ImageU8 HeifLikeCodec::decode_impl(std::span<const std::uint8_t> data) const {
  ES_TRACE_SCOPE("codec", "heif_decode");
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

  auto read_plane = [&](int pw, int ph) {
    CodedPlane cp;
    cp.blocks_x = pad_to(pw, kBlock) / kBlock;
    cp.blocks_y = pad_to(ph, kBlock) / kBlock;
    // DC code + EOB is at least 2 bits per block; reject streams too
    // short for the plane before the coefficients grow.
    ES_DECODE_CHECK(br.bits_remaining() >=
                        2 * static_cast<std::size_t>(cp.blocks_x) *
                            static_cast<std::size_t>(cp.blocks_y),
                    DecodeStatus::kTruncated, "plane data truncated");
    // They then grow block by block as the stream decodes: a corrupt
    // header's block count is never allocated up front.
    int prev_dc = 0;
    for (std::size_t b = 0; b < cp.block_count(); ++b) {
      cp.zz.resize(cp.zz.size() + kBlockArea);
      codec_detail::decode_block(cp.block(b), prev_dc, dc_table, ac_table, br);
    }
    return cp;
  };

  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;
  CodedPlane cy = read_plane(w, h);
  CodedPlane ccb = read_plane(cw, ch);
  CodedPlane ccr = read_plane(cw, ch);

  YccPlanes planes;
  planes.y = decode_plane(cy, w, h, quality, false);
  planes.cb = decode_plane(ccb, cw, ch, quality, true);
  planes.cr = decode_plane(ccr, cw, ch, quality, true);
  return planes_to_rgb(planes, w, h, ChromaUpsample::kBilinear);
}

}  // namespace edgestab
