// Codec tests: bit I/O, Huffman coding, DCT inversion, round-trips for
// all four codecs (parameterized quality sweeps), size orderings that the
// paper's Tables 2-3 rely on, and the JPEG decoder variants that drive the
// §7 OS experiment.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "codec/bitio.h"
#include "codec/codec.h"
#include "codec/coeffs.h"
#include "codec/dct.h"
#include "codec/huffman.h"
#include "codec/jpeg_like.h"
#include "codec/planes.h"
#include "codec/png_like.h"
#include "image/color.h"
#include "image/draw.h"
#include "image/metrics.h"
#include "util/md5.h"
#include "util/rng.h"

namespace edgestab {
namespace {

/// A photo-like test image: gradient sky, textured ground, a few shapes.
ImageU8 photo_like_image(int w, int h, std::uint64_t seed) {
  Image img(w, h, 3);
  fill_vertical_gradient(img, {0.55f, 0.65f, 0.8f}, {0.35f, 0.3f, 0.25f});
  Pcg32 rng(seed);
  for (int i = 0; i < 4; ++i) {
    float cx = static_cast<float>(rng.uniform(0.2, 0.8)) * w;
    float cy = static_cast<float>(rng.uniform(0.2, 0.8)) * h;
    float r = static_cast<float>(rng.uniform(0.08, 0.2)) * w;
    Rgb color{static_cast<float>(rng.uniform(0.1, 0.9)),
              static_cast<float>(rng.uniform(0.1, 0.9)),
              static_cast<float>(rng.uniform(0.1, 0.9))};
    paint_sdf(img, SdfCircle{cx, cy, r}, color);
  }
  texture_speckle(img, SdfRoundRect{w / 2.0f, h / 2.0f, w / 2.0f, h / 2.0f,
                                    1.0f},
                  0.03f, 3.0f, seed + 1);
  return to_u8(img);
}

TEST(BitIo, RoundTripVariousWidths) {
  BitWriter bw;
  bw.put(1, 1);
  bw.put(0b1010, 4);
  bw.put(0x3ff, 10);
  bw.put(0xdeadbeef, 32);
  bw.put(0, 3);
  Bytes data = bw.finish();
  BitReader br(data);
  EXPECT_EQ(br.get(1), 1u);
  EXPECT_EQ(br.get(4), 0b1010u);
  EXPECT_EQ(br.get(10), 0x3ffu);
  EXPECT_EQ(br.get(32), 0xdeadbeefu);
  EXPECT_EQ(br.get(3), 0u);
}

TEST(BitIo, MsbFirstByteLayout) {
  BitWriter bw;
  bw.put(1, 1);  // high bit of first byte
  Bytes data = bw.finish();
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 0x80);
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter bw;
  bw.put(0xff, 8);
  Bytes data = bw.finish();
  BitReader br(data);
  br.get(8);
  // Over-reading is a data error (truncated stream), not a programmer
  // error: it throws the typed DecodeError so try_decode can trap it.
  EXPECT_THROW(br.get(1), DecodeError);
}

TEST(Huffman, RoundTripRandomSymbols) {
  Pcg32 rng(1);
  std::vector<std::uint64_t> freq(64, 0);
  std::vector<int> symbols;
  for (int i = 0; i < 2000; ++i) {
    // Skewed distribution.
    int s = static_cast<int>(rng.uniform() * rng.uniform() * 64) % 64;
    symbols.push_back(s);
    ++freq[static_cast<std::size_t>(s)];
  }
  HuffmanTable table = HuffmanTable::from_frequencies(freq);
  BitWriter bw;
  table.write_table(bw);
  for (int s : symbols) table.encode(bw, s);
  Bytes data = bw.finish();

  BitReader br(data);
  HuffmanTable decoded_table = HuffmanTable::read_table(br);
  for (int expected : symbols) EXPECT_EQ(decoded_table.decode(br), expected);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freq(10, 0);
  freq[3] = 100;
  HuffmanTable table = HuffmanTable::from_frequencies(freq);
  BitWriter bw;
  for (int i = 0; i < 5; ++i) table.encode(bw, 3);
  Bytes data = bw.finish();
  BitReader br(data);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(table.decode(br), 3);
}

TEST(Huffman, OptimalForSkewedDistribution) {
  // Frequencies 8,4,2,1,1: optimal lengths 1,2,3,4,4.
  std::vector<std::uint64_t> freq{8, 4, 2, 1, 1};
  HuffmanTable table = HuffmanTable::from_frequencies(freq);
  EXPECT_EQ(table.lengths()[0], 1);
  EXPECT_EQ(table.lengths()[1], 2);
  EXPECT_EQ(table.lengths()[2], 3);
  EXPECT_EQ(table.lengths()[3], 4);
  EXPECT_EQ(table.lengths()[4], 4);
  EXPECT_EQ(table.cost_bits(freq), 8u * 1 + 4 * 2 + 2 * 3 + 1 * 4 + 1 * 4);
}

TEST(Huffman, AllZeroFrequenciesThrows) {
  std::vector<std::uint64_t> freq(8, 0);
  EXPECT_THROW(HuffmanTable::from_frequencies(freq), CheckError);
}

/// Test-local canonical Huffman decoder that reads one bit at a time
/// straight from the bytes, built only from a table's code lengths: the
/// reference the table-driven HuffmanTable::decode must agree with.
class SerialHuffman {
 public:
  explicit SerialHuffman(const std::vector<std::uint8_t>& lengths) {
    for (std::size_t s = 0; s < lengths.size(); ++s)
      if (lengths[s] > 0) sorted_.push_back(static_cast<int>(s));
    std::stable_sort(sorted_.begin(), sorted_.end(), [&](int a, int b) {
      return lengths[static_cast<std::size_t>(a)] <
             lengths[static_cast<std::size_t>(b)];
    });
    std::uint32_t code = 0;
    std::size_t idx = 0;
    for (int len = 1; len <= HuffmanTable::kMaxBits; ++len) {
      first_code_[len] = code;
      first_index_[len] = idx;
      while (idx < sorted_.size() &&
             lengths[static_cast<std::size_t>(sorted_[idx])] == len) {
        ++code;
        ++idx;
      }
      code <<= 1;
    }
    first_index_[HuffmanTable::kMaxBits + 1] = sorted_.size();
  }

  /// Decode symbols from bit 0 until the stream fails; returns the
  /// symbols, the bit position after each, and the failure status.
  void decode_all(const Bytes& data, std::vector<int>& symbols,
                  std::vector<std::size_t>& ends,
                  DecodeStatus& status) const {
    std::size_t pos = 0;
    for (;;) {
      std::uint32_t code = 0;
      int symbol = -1;
      for (int len = 1; len <= HuffmanTable::kMaxBits && symbol < 0; ++len) {
        if (pos >= data.size() * 8) {
          status = DecodeStatus::kTruncated;
          return;
        }
        const std::uint32_t bit = (data[pos >> 3] >> (7 - (pos & 7))) & 1u;
        ++pos;
        code = (code << 1) | bit;
        const std::size_t count = first_index_[len + 1] - first_index_[len];
        if (code >= first_code_[len] && code < first_code_[len] + count)
          symbol = sorted_[first_index_[len] + (code - first_code_[len])];
      }
      if (symbol < 0) {
        status = DecodeStatus::kCorrupt;
        return;
      }
      symbols.push_back(symbol);
      ends.push_back(pos);
    }
  }

 private:
  std::vector<int> sorted_;
  std::uint32_t first_code_[HuffmanTable::kMaxBits + 2] = {};
  std::size_t first_index_[HuffmanTable::kMaxBits + 2] = {};
};

/// Decode `data` with `table` and with the serial reference until each
/// fails; symbols, bit positions and the final status must all agree.
void expect_decoders_agree(const HuffmanTable& table, const Bytes& data) {
  std::vector<int> want;
  std::vector<std::size_t> want_ends;
  DecodeStatus want_status = DecodeStatus::kOk;
  SerialHuffman(table.lengths()).decode_all(data, want, want_ends,
                                            want_status);
  BitReader br(data);
  std::size_t i = 0;
  DecodeStatus got_status = DecodeStatus::kOk;
  try {
    for (;; ++i) {
      const int symbol = table.decode(br);
      ASSERT_LT(i, want.size()) << "decoded past the reference's failure";
      ASSERT_EQ(symbol, want[i]) << "symbol " << i;
      ASSERT_EQ(br.bits_consumed(), want_ends[i]) << "symbol " << i;
    }
  } catch (const DecodeError& e) {
    got_status = e.status();
  }
  EXPECT_EQ(i, want.size());
  EXPECT_EQ(got_status, want_status);
}

/// Random bytes: on a complete code every bit pattern decodes, so this
/// walks the code space until the stream runs out.
Bytes random_bytes(Pcg32& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

TEST(Huffman, TableDecodeMatchesSerialOnRandomTables) {
  Pcg32 rng(77);
  int max_len_seen = 0;
  for (int t = 0; t < 60; ++t) {
    // Frequencies spanning ~10 decades force deep, length-limited codes.
    const int n = 2 + static_cast<int>(rng.uniform_int(300));
    std::vector<std::uint64_t> freq(static_cast<std::size_t>(n));
    for (auto& f : freq)
      f = rng.uniform() < 0.2
              ? 0
              : 1 + static_cast<std::uint64_t>(std::exp(rng.uniform(0, 23)));
    freq[0] = std::max<std::uint64_t>(freq[0], 1);
    HuffmanTable table = HuffmanTable::from_frequencies(freq);
    for (std::uint8_t len : table.lengths())
      max_len_seen = std::max(max_len_seen, static_cast<int>(len));
    expect_decoders_agree(table, random_bytes(rng, 64));
    // An encoded stream, then its padding and the end of data.
    BitWriter bw;
    for (int i = 0; i < 300; ++i) {
      const int s = static_cast<int>(rng.uniform_int(
          static_cast<std::uint32_t>(n)));
      if (table.lengths()[static_cast<std::size_t>(s)] > 0)
        table.encode(bw, s);
    }
    expect_decoders_agree(table, bw.finish());
  }
  EXPECT_EQ(max_len_seen, HuffmanTable::kMaxBits);
}

TEST(Huffman, TableDecodeMatchesSerialOnOversubscribedTables) {
  // read_table accepts any 4-bit lengths, so a corrupt stream can carry
  // an over-subscribed (or incomplete) code.
  Pcg32 rng(78);
  for (int t = 0; t < 300; ++t) {
    const int n = 1 + static_cast<int>(rng.uniform_int(40));
    std::vector<std::uint8_t> lengths(static_cast<std::size_t>(n));
    const std::uint32_t span = 1 + rng.uniform_int(16);
    for (auto& len : lengths)
      len = static_cast<std::uint8_t>(rng.uniform_int(span));
    lengths[rng.uniform_int(static_cast<std::uint32_t>(n))] =
        static_cast<std::uint8_t>(1 + rng.uniform_int(15));
    BitWriter bw;
    bw.put(static_cast<std::uint32_t>(n), 16);
    for (std::uint8_t len : lengths) bw.put(len, 4);
    Bytes header = bw.finish();
    BitReader br(header);
    HuffmanTable table = HuffmanTable::read_table(br);
    expect_decoders_agree(table, random_bytes(rng, 24));
  }
}

TEST(Huffman, TableDecodeMatchesSerialAtEveryTruncation) {
  Pcg32 rng(79);
  std::vector<std::uint64_t> freq(120);
  for (auto& f : freq)
    f = 1 + static_cast<std::uint64_t>(std::exp(rng.uniform(0, 20)));
  HuffmanTable table = HuffmanTable::from_frequencies(freq);
  BitWriter bw;
  for (int i = 0; i < 400; ++i)
    table.encode(bw, static_cast<int>(rng.uniform_int(120)));
  const Bytes data = bw.finish();
  for (std::size_t cut = 0; cut <= data.size(); ++cut)
    expect_decoders_agree(
        table, Bytes(data.begin(), data.begin() + static_cast<long>(cut)));
}

TEST(BitIo, PeekSkipAndWideGetsAgreeWithBitwiseReads) {
  Pcg32 rng(80);
  const Bytes data = random_bytes(rng, 37);
  BitReader wide(data), bitwise(data);
  while (wide.bits_remaining() > 0) {
    const int bits = static_cast<int>(std::min<std::size_t>(
        1 + rng.uniform_int(32), wide.bits_remaining()));
    std::uint32_t expected = 0;
    for (int i = 0; i < bits; ++i)
      expected = (expected << 1) |
                 static_cast<std::uint32_t>(bitwise.get_bit());
    ASSERT_EQ(wide.peek(bits), expected);
    if (rng.uniform() < 0.5) {
      wide.skip(bits);
    } else {
      ASSERT_EQ(wide.get(bits), expected);
    }
    ASSERT_EQ(wide.bits_consumed(), bitwise.bits_consumed());
  }
  EXPECT_THROW(wide.get(1), DecodeError);
}

/// The reader's 64-bit window built one byte at a time: the byte at the
/// read position and the seven after it, big-endian, zero past the end.
std::uint32_t byte_loop_peek(const Bytes& data, std::size_t bit_pos,
                             int bits) {
  if (bits == 0) return 0;
  const std::size_t byte = bit_pos >> 3;
  const std::size_t avail = std::min<std::size_t>(8, data.size() - byte);
  std::uint64_t window = 0;
  for (std::size_t i = 0; i < avail; ++i)
    window = (window << 8) | data[byte + i];
  window <<= 8 * (8 - avail);
  return static_cast<std::uint32_t>((window << (bit_pos & 7)) >>
                                    (64 - bits));
}

TEST(BitIo, PeekAndGetMatchByteLoopWindowAtEveryOffset) {
  Pcg32 rng(81);
  for (std::size_t n = 0; n <= 24; ++n) {
    const Bytes data = random_bytes(rng, n);
    for (std::size_t pos = 0; pos <= 8 * n; ++pos)
      for (int bits = 0; bits <= 32; ++bits) {
        BitReader br(data);
        br.skip(static_cast<int>(pos));
        if (pos + static_cast<std::size_t>(bits) > 8 * n) {
          try {
            br.get(bits);
            ADD_FAILURE() << "n=" << n << " pos=" << pos << " bits=" << bits;
          } catch (const DecodeError& e) {
            EXPECT_EQ(e.status(), DecodeStatus::kTruncated);
          }
          EXPECT_EQ(br.bits_consumed(), pos);
          continue;
        }
        const std::uint32_t want = byte_loop_peek(data, pos, bits);
        ASSERT_EQ(br.peek(bits), want)
            << "n=" << n << " pos=" << pos << " bits=" << bits;
        ASSERT_EQ(br.get(bits), want)
            << "n=" << n << " pos=" << pos << " bits=" << bits;
        ASSERT_EQ(br.bits_consumed(), pos + static_cast<std::size_t>(bits));
      }
  }
}

class DctSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(DctSizeTest, ForwardInverseIdentity) {
  int n = GetParam();
  Pcg32 rng(2);
  std::vector<float> block(static_cast<std::size_t>(n) * n);
  for (auto& v : block) v = static_cast<float>(rng.uniform(-128, 128));
  std::vector<float> coeffs(block.size()), back(block.size());
  fdct_2d(block.data(), coeffs.data(), n);
  idct_2d(coeffs.data(), back.data(), n);
  for (std::size_t i = 0; i < block.size(); ++i)
    EXPECT_NEAR(back[i], block[i], 1e-2f);
}

TEST_P(DctSizeTest, ParsevalEnergyPreserved) {
  int n = GetParam();
  Pcg32 rng(3);
  std::vector<float> block(static_cast<std::size_t>(n) * n);
  for (auto& v : block) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> coeffs(block.size());
  fdct_2d(block.data(), coeffs.data(), n);
  double e1 = 0, e2 = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    e1 += static_cast<double>(block[i]) * block[i];
    e2 += static_cast<double>(coeffs[i]) * coeffs[i];
  }
  EXPECT_NEAR(e1, e2, 1e-3 * e1);
}

TEST_P(DctSizeTest, ConstantBlockIsDcOnly) {
  int n = GetParam();
  std::vector<float> block(static_cast<std::size_t>(n) * n, 5.0f);
  std::vector<float> coeffs(block.size());
  fdct_2d(block.data(), coeffs.data(), n);
  EXPECT_NEAR(coeffs[0], 5.0f * n, 1e-3f);
  for (std::size_t i = 1; i < coeffs.size(); ++i)
    EXPECT_NEAR(coeffs[i], 0.0f, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctSizeTest, ::testing::Values(4, 8, 16));

TEST(Dct, FixedPointIdctCloseToFloat) {
  Pcg32 rng(4);
  float coeffs[64];
  for (auto& v : coeffs) v = static_cast<float>(rng.uniform(-100, 100));
  float a[64], b[64];
  idct_2d(coeffs, a, 8);
  idct8_fixed(coeffs, b);
  int exact = 0;
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(a[i], b[i], 0.5f);  // close...
    if (a[i] == b[i]) ++exact;
  }
  EXPECT_LT(exact, 64);  // ...but not bit-identical (that's the point)
}

TEST(Coeffs, ZigzagIsPermutationLowFreqFirst) {
  for (int n : {4, 8, 16}) {
    const auto& zz = codec_detail::zigzag_order(n);
    std::vector<int> sorted = zz;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < n * n; ++i)
      EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(zz[0], 0);
    EXPECT_EQ(zz[1], 1);      // (0,1)
    EXPECT_EQ(zz[2], n);      // (1,0)
    EXPECT_EQ(zz.back(), n * n - 1);
  }
}

TEST(Coeffs, AmplitudeRoundTrip) {
  for (int v : {-255, -128, -17, -1, 0, 1, 5, 127, 255, 1000}) {
    int cat = codec_detail::category_of(v);
    BitWriter bw;
    codec_detail::put_amplitude(bw, v, cat);
    bw.put(0, 7);  // padding so finish() has data even for v=0
    Bytes data = bw.finish();
    BitReader br(data);
    EXPECT_EQ(codec_detail::get_amplitude(br, cat), v) << "v=" << v;
  }
}

TEST(Coeffs, CategoryOfMatchesShiftLoop) {
  for (int v = -(1 << 20); v <= (1 << 20); ++v) {
    int a = std::abs(v);
    int want = 0;
    while (a > 0) {
      a >>= 1;
      ++want;
    }
    ASSERT_EQ(codec_detail::category_of(v), want) << "v=" << v;
  }
}

TEST(Coeffs, RoundHalfAwayMatchesLround) {
  auto expect_matches = [](float v) {
    ASSERT_EQ(codec_detail::round_half_away(v),
              static_cast<int>(std::lround(v)))
        << "v=" << v;
  };
  // Every half-integer up to 2^22 (above it floats have no .5 part) and
  // its two neighbouring floats, both signs.
  for (int k = 0; k <= (1 << 22); ++k) {
    const float half = static_cast<float>(k) + 0.5f;
    for (float v : {half, std::nextafter(half, 0.0f),
                    std::nextafter(half, 2.0f * half + 1.0f)}) {
      expect_matches(v);
      expect_matches(-v);
    }
  }
  // Integers, zeros and a log-spaced sweep of quotients like the
  // quantizers produce.
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.49999997f, -0.49999997f,
                  8388607.5f, 16777216.0f, 1e9f, -1e9f})
    expect_matches(v);
  Pcg32 rng(92);
  for (int i = 0; i < 200000; ++i) {
    const float v = static_cast<float>(std::ldexp(
        rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform_int(30))));
    expect_matches(v);
  }
}

TEST(Coeffs, AcRoundTripWithLongRuns) {
  std::vector<int> block(64, 0);
  block[0] = 7;     // DC, not coded here
  block[5] = -3;
  block[40] = 12;   // long zero run before this
  block[63] = -1;
  std::vector<std::uint64_t> freq(256, 0);
  codec_detail::count_ac_tokens(block, freq);
  HuffmanTable table = HuffmanTable::from_frequencies(freq);
  BitWriter bw;
  codec_detail::encode_ac(block, table, bw);
  Bytes data = bw.finish();
  BitReader br(data);
  std::vector<int> out(64, 0);
  codec_detail::decode_ac(out, table, br);
  out[0] = block[0];
  EXPECT_EQ(out, block);
}

// ---- Colour planes: bit-for-bit against per-pixel references --------------

/// rgb_to_planes as one colour conversion per pixel into full-resolution
/// chroma planes, then a (dy, dx)-ordered 2x2 box average per chroma
/// sample.
codec_detail::YccPlanes per_pixel_rgb_to_planes(const ImageU8& image) {
  using codec_detail::make_plane;
  const int w = image.width();
  const int h = image.height();
  codec_detail::YccPlanes out;
  out.y = make_plane(w, h);
  codec_detail::Plane cb_full = make_plane(w, h);
  codec_detail::Plane cr_full = make_plane(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      float r = image.at(x, y, 0) / 255.0f;
      float g = image.at(x, y, 1) / 255.0f;
      float b = image.at(x, y, 2) / 255.0f;
      float yy, cb, cr;
      rgb_to_ycbcr(r, g, b, yy, cb, cr);
      out.y.at(x, y) = yy * 255.0f - 128.0f;
      cb_full.at(x, y) = (cb - 0.5f) * 255.0f;
      cr_full.at(x, y) = (cr - 0.5f) * 255.0f;
    }
  const int cw = (w + 1) / 2;
  const int ch = (h + 1) / 2;
  out.cb = make_plane(cw, ch);
  out.cr = make_plane(cw, ch);
  for (int y = 0; y < ch; ++y)
    for (int x = 0; x < cw; ++x) {
      float scb = 0.0f, scr = 0.0f;
      int count = 0;
      for (int dy = 0; dy < 2; ++dy)
        for (int dx = 0; dx < 2; ++dx) {
          int sx = 2 * x + dx, sy = 2 * y + dy;
          if (sx >= w || sy >= h) continue;
          scb += cb_full.at(sx, sy);
          scr += cr_full.at(sx, sy);
          ++count;
        }
      out.cb.at(x, y) = scb / static_cast<float>(count);
      out.cr.at(x, y) = scr / static_cast<float>(count);
    }
  return out;
}

/// planes_to_rgb with the chroma sample looked up (nearest) or
/// interpolated (bilinear) separately for every output pixel.
ImageU8 per_pixel_planes_to_rgb(const codec_detail::YccPlanes& planes, int w,
                                int h, codec_detail::ChromaUpsample upsample) {
  auto chroma_at = [&](const codec_detail::Plane& p, int x, int y) {
    if (upsample == codec_detail::ChromaUpsample::kNearest) {
      return p.at(std::min(x / 2, p.w - 1), std::min(y / 2, p.h - 1));
    }
    float fx2 = (static_cast<float>(x) - 0.5f) / 2.0f;
    float fy2 = (static_cast<float>(y) - 0.5f) / 2.0f;
    int x0 = std::clamp(static_cast<int>(std::floor(fx2)), 0, p.w - 1);
    int y0 = std::clamp(static_cast<int>(std::floor(fy2)), 0, p.h - 1);
    int x1 = std::min(x0 + 1, p.w - 1);
    int y1 = std::min(y0 + 1, p.h - 1);
    float tx = std::clamp(fx2 - static_cast<float>(x0), 0.0f, 1.0f);
    float ty = std::clamp(fy2 - static_cast<float>(y0), 0.0f, 1.0f);
    float top = p.at(x0, y0) + (p.at(x1, y0) - p.at(x0, y0)) * tx;
    float bot = p.at(x0, y1) + (p.at(x1, y1) - p.at(x0, y1)) * tx;
    return top + (bot - top) * ty;
  };
  ImageU8 out(w, h, 3);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      float yy = (planes.y.at(x, y) + 128.0f) / 255.0f;
      float cb = chroma_at(planes.cb, x, y) / 255.0f + 0.5f;
      float cr = chroma_at(planes.cr, x, y) / 255.0f + 0.5f;
      float r, g, b;
      ycbcr_to_rgb(yy, cb, cr, r, g, b);
      out.at(x, y, 0) = static_cast<std::uint8_t>(
          std::clamp(r * 255.0f + 0.5f, 0.0f, 255.0f));
      out.at(x, y, 1) = static_cast<std::uint8_t>(
          std::clamp(g * 255.0f + 0.5f, 0.0f, 255.0f));
      out.at(x, y, 2) = static_cast<std::uint8_t>(
          std::clamp(b * 255.0f + 0.5f, 0.0f, 255.0f));
    }
  return out;
}

void expect_plane_bit_equal(const codec_detail::Plane& got,
                            const codec_detail::Plane& want,
                            const std::string& label) {
  ASSERT_EQ(got.w, want.w) << label;
  ASSERT_EQ(got.h, want.h) << label;
  ASSERT_EQ(got.v.size(), want.v.size()) << label;
  for (std::size_t i = 0; i < want.v.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.v[i]),
              std::bit_cast<std::uint32_t>(want.v[i]))
        << label << " sample " << i << ": " << got.v[i] << " vs "
        << want.v[i];
}

/// Random u8 image with a few saturated pixels so the extremes of the
/// colour conversion are covered.
ImageU8 random_u8_image(int w, int h, Pcg32& rng) {
  ImageU8 img(w, h, 3);
  for (auto& v : img.data()) {
    const std::uint32_t r = rng.next_u32();
    v = (r & 0xf00) == 0 ? static_cast<std::uint8_t>((r & 1) * 255)
                         : static_cast<std::uint8_t>(r);
  }
  return img;
}

struct PlaneShape {
  int w, h;
};
constexpr PlaneShape kPlaneShapes[] = {
    {64, 64}, {63, 47}, {17, 9}, {2, 1}, {1, 1}};

std::string shape_name(const PlaneShape& s) {
  return std::to_string(s.w) + "x" + std::to_string(s.h);
}

TEST(Planes, RgbToPlanesMatchesPerPixelLoopBitForBit) {
  Pcg32 rng(90);
  for (const PlaneShape& s : kPlaneShapes) {
    const ImageU8 img = random_u8_image(s.w, s.h, rng);
    const codec_detail::YccPlanes got = codec_detail::rgb_to_planes(img);
    const codec_detail::YccPlanes want = per_pixel_rgb_to_planes(img);
    expect_plane_bit_equal(got.y, want.y, shape_name(s) + " y");
    expect_plane_bit_equal(got.cb, want.cb, shape_name(s) + " cb");
    expect_plane_bit_equal(got.cr, want.cr, shape_name(s) + " cr");
  }
}

TEST(Planes, PlanesToRgbMatchesPerPixelLoopBitForBit) {
  Pcg32 rng(91);
  auto random_plane = [&](int w, int h, double range) {
    codec_detail::Plane p = codec_detail::make_plane(w, h);
    for (float& v : p.v) v = static_cast<float>(rng.uniform(-range, range));
    return p;
  };
  auto check = [&](int w, int h, double chroma_range) {
    codec_detail::YccPlanes planes;
    planes.y = random_plane(w, h, 140.0);
    planes.cb = random_plane((w + 1) / 2, (h + 1) / 2, chroma_range);
    planes.cr = random_plane((w + 1) / 2, (h + 1) / 2, chroma_range);
    for (auto upsample : {codec_detail::ChromaUpsample::kNearest,
                          codec_detail::ChromaUpsample::kBilinear}) {
      const ImageU8 got = codec_detail::planes_to_rgb(planes, w, h, upsample);
      const ImageU8 want = per_pixel_planes_to_rgb(planes, w, h, upsample);
      ASSERT_TRUE(got == want)
          << w << "x" << h << " upsample "
          << (upsample == codec_detail::ChromaUpsample::kNearest ? "nearest"
                                                                 : "bilinear");
    }
  };
  // Decoded planes overshoot the nominal range, so the clamp is hit.
  for (const PlaneShape& s : kPlaneShapes) check(s.w, s.h, 160.0);
  // Rounding to bytes hides most one-ulp differences in the float path,
  // so many in-range planes are swept too.
  for (int i = 0; i < 64; ++i) check(64, 64, 64.0);
}

// ---- Full codec round trips ---------------------------------------------------

TEST(PngLike, LosslessRoundTrip) {
  PngLikeCodec codec;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ImageU8 img = photo_like_image(37, 29, seed);  // odd sizes on purpose
    Bytes data = codec.encode(img);
    ImageU8 back = codec.decode(data);
    EXPECT_EQ(back, img) << "seed " << seed;
  }
}

TEST(PngLike, LosslessOnRandomNoise) {
  Pcg32 rng(9);
  ImageU8 img(16, 16, 3);
  for (auto& v : img.data())
    v = static_cast<std::uint8_t>(rng.uniform_int(256u));
  PngLikeCodec codec;
  EXPECT_EQ(codec.decode(codec.encode(img)), img);
}

TEST(PngLike, CompressesSmoothContent) {
  ImageU8 img = photo_like_image(64, 64, 5);
  PngLikeCodec codec;
  Bytes data = codec.encode(img);
  EXPECT_LT(data.size(), img.size());  // beats raw
}

struct LossyCase {
  ImageFormat format;
  int quality;
  double min_psnr;
};

class LossyCodecTest : public ::testing::TestWithParam<LossyCase> {};

TEST_P(LossyCodecTest, RoundTripQuality) {
  auto [format, quality, min_psnr] = GetParam();
  auto codec = make_codec(format, quality);
  ImageU8 img = photo_like_image(48, 40, 7);
  Bytes data = codec->encode(img);
  ImageU8 back = codec->decode(data);
  ASSERT_EQ(back.width(), img.width());
  ASSERT_EQ(back.height(), img.height());
  double p = psnr(to_float(img), to_float(back));
  EXPECT_GT(p, min_psnr) << codec->name() << " psnr=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    QualitySweep, LossyCodecTest,
    ::testing::Values(
        LossyCase{ImageFormat::kJpegLike, 100, 32.0},
        LossyCase{ImageFormat::kJpegLike, 85, 28.0},
        LossyCase{ImageFormat::kJpegLike, 50, 26.0},
        LossyCase{ImageFormat::kJpegLike, 20, 22.0},
        LossyCase{ImageFormat::kWebpLike, 90, 27.0},
        LossyCase{ImageFormat::kWebpLike, 75, 24.0},
        LossyCase{ImageFormat::kWebpLike, 40, 20.0},
        LossyCase{ImageFormat::kHeifLike, 95, 32.0},
        LossyCase{ImageFormat::kHeifLike, 80, 27.0},
        LossyCase{ImageFormat::kHeifLike, 50, 23.0}));

TEST(JpegLike, HigherQualityLargerAndCloser) {
  ImageU8 img = photo_like_image(64, 64, 11);
  JpegLikeCodec q50(50), q85(85), q100(100);
  Bytes d50 = q50.encode(img);
  Bytes d85 = q85.encode(img);
  Bytes d100 = q100.encode(img);
  EXPECT_LT(d50.size(), d85.size());
  EXPECT_LT(d85.size(), d100.size());
  double p50 = psnr(to_float(img), to_float(q50.decode(d50)));
  double p85 = psnr(to_float(img), to_float(q85.decode(d85)));
  double p100 = psnr(to_float(img), to_float(q100.decode(d100)));
  EXPECT_LT(p50, p85);
  EXPECT_LT(p85, p100);
}

TEST(Codecs, SizeOrderingMatchesPaperTables) {
  // Paper Table 3: PNG >> JPEG > HEIF > WebP (format defaults).
  ImageU8 img = photo_like_image(96, 96, 13);
  auto png = make_codec(ImageFormat::kPngLike);
  auto jpeg = make_codec(ImageFormat::kJpegLike);
  auto heif = make_codec(ImageFormat::kHeifLike);
  auto webp = make_codec(ImageFormat::kWebpLike);
  std::size_t s_png = png->encode(img).size();
  std::size_t s_jpeg = jpeg->encode(img).size();
  std::size_t s_heif = heif->encode(img).size();
  std::size_t s_webp = webp->encode(img).size();
  EXPECT_GT(s_png, s_jpeg);
  EXPECT_GT(s_jpeg, s_heif);
  EXPECT_GT(s_heif, s_webp);
}

TEST(Codecs, LossyFormatsProduceDifferentPixels) {
  // The §5 instability mechanism: same input, different reconstructions.
  ImageU8 img = photo_like_image(48, 48, 17);
  auto jpeg = make_codec(ImageFormat::kJpegLike, 85);
  auto webp = make_codec(ImageFormat::kWebpLike, 85);
  auto heif = make_codec(ImageFormat::kHeifLike, 85);
  ImageU8 rj = jpeg->decode(jpeg->encode(img));
  ImageU8 rw = webp->decode(webp->encode(img));
  ImageU8 rh = heif->decode(heif->encode(img));
  EXPECT_FALSE(rj == rw);
  EXPECT_FALSE(rj == rh);
  EXPECT_FALSE(rw == rh);
}

TEST(JpegLike, EncodeIndependentOfDecodeOptions) {
  ImageU8 img = photo_like_image(32, 32, 19);
  JpegLikeCodec standard(85, {});
  JpegDecodeOptions variant_opts;
  variant_opts.upsample = JpegDecodeOptions::Upsample::kBilinear;
  variant_opts.fixed_point_idct = true;
  JpegLikeCodec variant(85, variant_opts);
  EXPECT_EQ(standard.encode(img), variant.encode(img));
}

TEST(JpegLike, DecoderVariantsDifferOnSameBytes) {
  // §7 mechanism: identical file, different decoded pixels, different MD5.
  ImageU8 img = photo_like_image(32, 32, 23);
  JpegLikeCodec standard(85, {});
  Bytes data = standard.encode(img);

  JpegDecodeOptions variant_opts;
  variant_opts.upsample = JpegDecodeOptions::Upsample::kBilinear;
  variant_opts.fixed_point_idct = true;
  JpegLikeCodec variant(85, variant_opts);

  ImageU8 decoded_standard = standard.decode(data);
  ImageU8 decoded_variant = variant.decode(data);
  EXPECT_FALSE(decoded_standard == decoded_variant);
  EXPECT_NE(Md5::hex(decoded_standard.data()),
            Md5::hex(decoded_variant.data()));
  // Pixel difference is small — the images look identical.
  double mad = mean_abs_diff(to_float(decoded_standard),
                             to_float(decoded_variant));
  EXPECT_LT(mad, 0.02);
}

TEST(JpegLike, DeterministicDecodeSameVariant) {
  ImageU8 img = photo_like_image(32, 32, 29);
  JpegLikeCodec codec(85, {});
  Bytes data = codec.encode(img);
  EXPECT_EQ(codec.decode(data), codec.decode(data));
}

TEST(PngLike, DecodeIsVariantInsensitive) {
  // Lossless formats leave no room for decoder interpretation — the
  // paper found zero instability on PNG inputs (§7).
  ImageU8 img = photo_like_image(24, 24, 31);
  PngLikeCodec a, b;
  Bytes data = a.encode(img);
  EXPECT_EQ(a.decode(data), b.decode(data));
  EXPECT_EQ(Md5::hex(a.decode(data).data()), Md5::hex(b.decode(data).data()));
}

TEST(Codecs, CorruptStreamThrowsNotCrashes) {
  ImageU8 img = photo_like_image(24, 24, 37);
  for (ImageFormat f : {ImageFormat::kJpegLike, ImageFormat::kPngLike,
                        ImageFormat::kWebpLike, ImageFormat::kHeifLike}) {
    auto codec = make_codec(f, 85);
    Bytes data = codec->encode(img);
    Bytes truncated(data.begin(), data.begin() + data.size() / 3);
    EXPECT_THROW(
        {
          ImageU8 out = codec->decode(truncated);
          (void)out;
        },
        CheckError)
        << format_name(f);
    Bytes bad_magic = data;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(
        {
          ImageU8 out = codec->decode(bad_magic);
          (void)out;
        },
        CheckError)
        << format_name(f);
  }
}

TEST(Codecs, QualityOutOfRangeThrows) {
  EXPECT_THROW(make_codec(ImageFormat::kJpegLike, 0), CheckError);
  EXPECT_THROW(make_codec(ImageFormat::kJpegLike, 101), CheckError);
  EXPECT_THROW(make_codec(ImageFormat::kWebpLike, -5), CheckError);
  EXPECT_THROW(make_codec(ImageFormat::kHeifLike, 1000), CheckError);
}

}  // namespace
}  // namespace edgestab
