#include "codec/webp_like.h"

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

constexpr std::uint32_t kMagic = 0x574c;  // "WL"
constexpr int kB = 8;        // prediction/transform block size
constexpr int kArea = kB * kB;

enum PredMode { kPredDc = 0, kPredHorizontal = 1, kPredVertical = 2 };

/// Quantizer steps from quality in zigzag order: the DC step, then the
/// AC step everywhere else (libjpeg-style scale; WebP-like leans on
/// prediction so its AC step is coarser than JPEG's for the same q).
std::array<float, kArea> zigzag_steps(int quality, bool chroma) {
  int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  float base_dc = chroma ? 22.0f : 16.0f;
  float base_ac = chroma ? 56.0f : 40.0f;
  std::array<float, kArea> steps{};
  steps.fill(std::clamp(base_ac * static_cast<float>(scale) / 100.0f, 1.0f,
                        255.0f));
  steps[0] = std::clamp(base_dc * static_cast<float>(scale) / 100.0f, 1.0f,
                        255.0f);
  return steps;
}

/// Fill a kB x kB prediction from reconstructed neighbors.
void predict_block(const Plane& recon, int bx, int by, PredMode mode,
                   float* pred) {
  const int x0 = bx * kB;
  const int y0 = by * kB;
  const bool has_top = y0 > 0;
  const bool has_left = x0 > 0;
  switch (mode) {
    case kPredDc: {
      float sum = 0.0f;
      int count = 0;
      if (has_top)
        for (int x = 0; x < kB; ++x) {
          sum += recon.at(x0 + x, y0 - 1);
          ++count;
        }
      if (has_left)
        for (int y = 0; y < kB; ++y) {
          sum += recon.at(x0 - 1, y0 + y);
          ++count;
        }
      float dc = count > 0 ? sum / static_cast<float>(count) : 0.0f;
      for (int i = 0; i < kArea; ++i) pred[i] = dc;
      break;
    }
    case kPredHorizontal:
      for (int y = 0; y < kB; ++y) {
        float v = has_left ? recon.at(x0 - 1, y0 + y) : 0.0f;
        for (int x = 0; x < kB; ++x) pred[y * kB + x] = v;
      }
      break;
    case kPredVertical:
      for (int x = 0; x < kB; ++x) {
        float v = has_top ? recon.at(x0 + x, y0 - 1) : 0.0f;
        for (int y = 0; y < kB; ++y) pred[y * kB + x] = v;
      }
      break;
  }
}

struct CodedPlane {
  std::vector<int> modes;                     // per block
  std::vector<std::array<int, kArea>> zz;     // zigzag coefficients
  int blocks_x = 0, blocks_y = 0;
};

/// Dequantize and inverse-transform block (bx, by) and write it, plus its
/// prediction, into `recon` — the encoder's reconstruction loop and the
/// decoder share it.
void reconstruct_block(const std::array<int, kArea>& q,
                       const std::array<float, kArea>& steps,
                       const float* pred, Plane& recon, int bx, int by) {
  float dq[kArea], rec[kArea];
  codec_detail::dequantize_block(q.data(), steps.data(), kB, dq);
  idct_2d(dq, rec, kB);
  for (int y = 0; y < kB; ++y) {
    float* row = &recon.at(bx * kB, by * kB + y);
    for (int x = 0; x < kB; ++x) row[x] = rec[y * kB + x] + pred[y * kB + x];
  }
}

/// Encode one plane with reconstruction-in-the-loop prediction.
CodedPlane code_plane(const Plane& src, int quality, bool chroma) {
  const auto steps = zigzag_steps(quality, chroma);

  CodedPlane out;
  out.blocks_x = pad_to(src.w, kB) / kB;
  out.blocks_y = pad_to(src.h, kB) / kB;
  Plane recon = make_plane(out.blocks_x * kB, out.blocks_y * kB);

  float block[kArea], pred[kArea], resid[kArea], coeffs[kArea];
  for (int by = 0; by < out.blocks_y; ++by)
    for (int bx = 0; bx < out.blocks_x; ++bx) {
      load_block(src, bx * kB, by * kB, kB, block);

      // Pick the mode with the smallest residual energy.
      int best_mode = kPredDc;
      float best_cost = 0.0f;
      float best_pred[kArea];
      for (int mode = 0; mode < 3; ++mode) {
        predict_block(recon, bx, by, static_cast<PredMode>(mode), pred);
        float cost = 0.0f;
        for (int i = 0; i < kArea; ++i) {
          float d = block[i] - pred[i];
          cost += d * d;
        }
        if (mode == 0 || cost < best_cost) {
          best_cost = cost;
          best_mode = mode;
          std::copy_n(pred, kArea, best_pred);
        }
      }

      for (int i = 0; i < kArea; ++i) resid[i] = block[i] - best_pred[i];
      fdct_2d(resid, coeffs, kB);
      std::array<int, kArea>& q = out.zz.emplace_back();
      codec_detail::quantize_block(coeffs, steps.data(), kB, q.data());
      out.modes.push_back(best_mode);

      // Reconstruct for downstream predictions.
      reconstruct_block(q, steps, best_pred, recon, bx, by);
    }
  return out;
}

Plane decode_plane(const CodedPlane& cp, int w, int h, int quality,
                   bool chroma) {
  const auto steps = zigzag_steps(quality, chroma);
  Plane recon = make_plane(cp.blocks_x * kB, cp.blocks_y * kB);

  float pred[kArea];
  std::size_t bi = 0;
  for (int by = 0; by < cp.blocks_y; ++by)
    for (int bx = 0; bx < cp.blocks_x; ++bx, ++bi) {
      predict_block(recon, bx, by, static_cast<PredMode>(cp.modes[bi]),
                    pred);
      reconstruct_block(cp.zz[bi], steps, pred, recon, bx, by);
    }
  // Crop to the nominal size.
  Plane out = make_plane(w, h);
  for (int y = 0; y < h; ++y)
    std::copy_n(&recon.at(0, y), w, &out.at(0, y));
  return out;
}

}  // namespace

WebpLikeCodec::WebpLikeCodec(int quality) : quality_(quality) {
  ES_CHECK_MSG(quality >= 1 && quality <= 100,
               "webp quality out of range: " << quality);
}

Bytes WebpLikeCodec::encode(const ImageU8& image) const {
  ES_TRACE_SCOPE("codec", "webp_encode");
  ES_CHECK(image.channels() == 3);
  const int w = image.width();
  const int h = image.height();
  YccPlanes planes = rgb_to_planes(image);
  CodedPlane cy = code_plane(planes.y, quality_, false);
  CodedPlane ccb = code_plane(planes.cb, quality_, true);
  CodedPlane ccr = code_plane(planes.cr, quality_, true);

  // Shared Huffman tables over DC categories and AC run/size tokens.
  std::vector<std::uint64_t> dc_freq(16, 0), ac_freq(256, 0);
  for (const CodedPlane* cp : {&cy, &ccb, &ccr}) {
    int prev_dc = 0;
    for (const auto& block : cp->zz)
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
  for (const CodedPlane* cp : {&cy, &ccb, &ccr}) {
    int prev_dc = 0;
    for (std::size_t b = 0; b < cp->zz.size(); ++b) {
      bw.put(static_cast<std::uint32_t>(cp->modes[b]), 2);
      codec_detail::encode_block(cp->zz[b], prev_dc, dc_table, ac_table, bw);
    }
  }
  Bytes out = bw.finish();
  ES_COUNT("codec.bytes_encoded", out.size());
  return out;
}

DecodeResult WebpLikeCodec::try_decode(
    std::span<const std::uint8_t> data) const {
  return codec_detail::guarded_decode(
      "webp_like", [&] { return decode_impl(data); });
}

ImageU8 WebpLikeCodec::decode_impl(std::span<const std::uint8_t> data) const {
  ES_TRACE_SCOPE("codec", "webp_decode");
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
    cp.blocks_x = pad_to(pw, kB) / kB;
    cp.blocks_y = pad_to(ph, kB) / kB;
    // Mode (2 bits) + DC code + EOB is at least 4 bits per block; reject
    // streams too short for the plane before the block vectors grow.
    ES_DECODE_CHECK(br.bits_remaining() >=
                        4 * static_cast<std::size_t>(cp.blocks_x) *
                            static_cast<std::size_t>(cp.blocks_y),
                    DecodeStatus::kTruncated, "plane data truncated");
    const auto n_blocks = static_cast<std::size_t>(cp.blocks_x) * cp.blocks_y;
    int prev_dc = 0;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      cp.modes.push_back(static_cast<int>(br.get(2)));
      ES_DECODE_CHECK(cp.modes.back() <= 2, DecodeStatus::kCorrupt,
                      "bad prediction mode");
      codec_detail::decode_block(cp.zz.emplace_back(), prev_dc, dc_table,
                                 ac_table, br);
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
