// Shared coefficient entropy-coding helpers for the block-transform
// codecs (JPEG-, WebP- and HEIF-like): JPEG-style magnitude categories,
// amplitude bits, quantizer rounding, zigzag scans, and one DC DPCM +
// AC run/size block coder.
#pragma once

#include <bit>
#include <cstdlib>
#include <span>
#include <vector>

#include "codec/bitio.h"
#include "codec/huffman.h"

namespace edgestab {
namespace codec_detail {

/// Magnitude category (bit count) of a coefficient value.
inline int category_of(int v) {
  return std::bit_width(static_cast<unsigned>(std::abs(v)));
}

/// Write the amplitude bits for a value of the given category
/// (JPEG-style one's-complement negative mapping).
inline void put_amplitude(BitWriter& bw, int v, int category) {
  if (category == 0) return;
  const std::uint32_t bits =
      v >= 0 ? static_cast<std::uint32_t>(v)
             : static_cast<std::uint32_t>(v + (1 << category) - 1);
  bw.put(bits, category);
}

inline int get_amplitude(BitReader& br, int category) {
  if (category == 0) return 0;
  // A corrupt table can carry symbols far outside the valid category
  // range; shifting by them below would be undefined.
  ES_DECODE_CHECK(category <= 30, DecodeStatus::kCorrupt,
                  "bad amplitude category " << category);
  auto bits = static_cast<int>(br.get(category));
  if (bits < (1 << (category - 1))) bits -= (1 << category) - 1;
  return bits;
}

/// Round half away from zero: std::lround(v) for |v| < 2^31, without
/// the library call and in a form the vectorizer takes. The int
/// conversion truncates toward zero and v minus it is exact.
inline int round_half_away(float v) {
  const int t = static_cast<int>(v);
  const float frac = v - static_cast<float>(t);
  return t + (frac >= 0.5f) - (frac <= -0.5f);
}

/// Zigzag scan order for an n*n block, n in {4, 8, 16}, lowest
/// frequencies first.
const std::vector<int>& zigzag_order(int n);

/// Quantize an n*n transform block into zigzag order:
/// q[i] = round_half_away(coeffs[zz[i]] / steps[i]).
void quantize_block(const float* coeffs, const float* steps, int n, int* q);

/// The inverse scan: coeffs[zz[i]] = q[i] * steps[i].
void dequantize_block(const int* q, const float* steps, int n,
                      float* coeffs);

/// Count run/size token frequencies of a zigzag-ordered coefficient block
/// (AC part; index 0 excluded). Symbols: run*16+size, 0x00 = EOB,
/// 0xF0 = ZRL(16 zeros). `freq` must have >= 256 entries.
void count_ac_tokens(std::span<const int> zz_block,
                     std::vector<std::uint64_t>& freq);

/// Encode / decode the AC part of a zigzag-ordered block.
void encode_ac(std::span<const int> zz_block, const HuffmanTable& table,
               BitWriter& bw);
void decode_ac(std::span<int> zz_block, const HuffmanTable& table,
               BitReader& br);

/// Whole blocks: the DC category of zz_block[0] - prev_dc (then its
/// amplitude bits) followed by the AC tokens; each call advances
/// `prev_dc` to the block's DC. `dc_freq` must cover every category.
void count_block_tokens(std::span<const int> zz_block, int& prev_dc,
                        std::vector<std::uint64_t>& dc_freq,
                        std::vector<std::uint64_t>& ac_freq);
void encode_block(std::span<const int> zz_block, int& prev_dc,
                  const HuffmanTable& dc, const HuffmanTable& ac,
                  BitWriter& bw);
/// `zz_block` must be all zero on entry.
void decode_block(std::span<int> zz_block, int& prev_dc,
                  const HuffmanTable& dc, const HuffmanTable& ac,
                  BitReader& br);

}  // namespace codec_detail
}  // namespace edgestab
