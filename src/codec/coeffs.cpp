#include "codec/coeffs.h"

#include <algorithm>
#include <bit>

#include "codec/status.h"
#include "util/check.h"

namespace edgestab {
namespace codec_detail {

namespace {

std::vector<int> make_zigzag(int n) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n) * n);
  // Walk anti-diagonals, alternating direction.
  for (int s = 0; s <= 2 * (n - 1); ++s) {
    if (s % 2 == 0) {
      // up-right: start from (min(s, n-1), ...)
      for (int y = std::min(s, n - 1); y >= 0 && s - y < n; --y)
        order.push_back(y * n + (s - y));
    } else {
      for (int x = std::min(s, n - 1); x >= 0 && s - x < n; --x)
        order.push_back((s - x) * n + x);
    }
  }
  return order;
}

/// Visit the nonzero AC coefficients of a zigzag-ordered block in order,
/// as visit(run, v) with `run` the zeros before v; returns whether zeros
/// follow the last one (then an EOB ends the block). Walks a nonzero bit
/// mask 64 coefficients at a time, so zero runs cost nothing.
template <class Visit>
bool for_each_ac(std::span<const int> zz_block, Visit visit) {
  const std::size_t n = zz_block.size();
  std::size_t next = 1;  // first index not yet visited
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    std::uint64_t nonzero = 0;
    for (std::size_t i = 0; i < len; ++i)
      nonzero |= static_cast<std::uint64_t>(zz_block[base + i] != 0) << i;
    if (base == 0) nonzero &= ~std::uint64_t{1};  // the DC coefficient
    for (; nonzero != 0; nonzero &= nonzero - 1) {
      const std::size_t i = base + static_cast<std::size_t>(
                                       std::countr_zero(nonzero));
      visit(static_cast<int>(i - next), zz_block[i]);
      next = i + 1;
    }
  }
  return next < n;
}

}  // namespace

const std::vector<int>& zigzag_order(int n) {
  // Immutable after the thread-safe static initialization, so codecs on
  // pool lanes read them without a lock.
  static const std::vector<int> z4 = make_zigzag(4);
  static const std::vector<int> z8 = make_zigzag(8);
  static const std::vector<int> z16 = make_zigzag(16);
  switch (n) {
    case 4: return z4;
    case 8: return z8;
    case 16: return z16;
    default: ES_CHECK_MSG(false, "unsupported zigzag size " << n);
  }
  return z8;  // unreachable
}

void quantize_block(const float* coeffs, const float* steps, int n, int* q) {
  const std::vector<int>& zz = zigzag_order(n);
  // Gather into scan order first so the divide-and-round pass is a
  // straight vectorizable loop.
  float scan[256];
  const std::size_t area = zz.size();
  for (std::size_t i = 0; i < area; ++i) scan[i] = coeffs[zz[i]];
  for (std::size_t i = 0; i < area; ++i)
    q[i] = round_half_away(scan[i] / steps[i]);
}

void dequantize_block(const int* q, const float* steps, int n,
                      float* coeffs) {
  const std::vector<int>& zz = zigzag_order(n);
  for (std::size_t i = 0; i < zz.size(); ++i)
    coeffs[zz[i]] = static_cast<float>(q[i]) * steps[i];
}

void count_ac_tokens(std::span<const int> zz_block,
                     std::vector<std::uint64_t>& freq) {
  ES_CHECK(freq.size() >= 256);
  const bool eob = for_each_ac(zz_block, [&](int run, int v) {
    freq[0xF0] += static_cast<std::uint64_t>(run / 16);
    const int size = category_of(v);
    ES_CHECK_MSG(size <= 15, "coefficient too large for run/size coding");
    ++freq[static_cast<std::size_t>(run % 16 * 16 + size)];
  });
  if (eob) ++freq[0x00];
}

void encode_ac(std::span<const int> zz_block, const HuffmanTable& table,
               BitWriter& bw) {
  const bool eob = for_each_ac(zz_block, [&](int run, int v) {
    for (; run >= 16; run -= 16) table.encode(bw, 0xF0);
    const int size = category_of(v);
    table.encode(bw, run * 16 + size);
    put_amplitude(bw, v, size);
  });
  if (eob) table.encode(bw, 0x00);
}

void decode_ac(std::span<int> zz_block, const HuffmanTable& table,
               BitReader& br) {
  const auto n = static_cast<int>(zz_block.size());
  int i = 1;
  while (i < n) {
    const int s = table.decode(br);
    if (s == 0x00) break;
    if (s == 0xF0) {
      i += 16;
      continue;
    }
    i += s >> 4;
    ES_DECODE_CHECK(i < n, DecodeStatus::kCorrupt, "coefficient overrun");
    zz_block[static_cast<std::size_t>(i)] = get_amplitude(br, s & 15);
    ++i;
  }
}

void count_block_tokens(std::span<const int> zz_block, int& prev_dc,
                        std::vector<std::uint64_t>& dc_freq,
                        std::vector<std::uint64_t>& ac_freq) {
  const int diff = zz_block[0] - prev_dc;
  prev_dc = zz_block[0];
  ++dc_freq[static_cast<std::size_t>(category_of(diff))];
  count_ac_tokens(zz_block, ac_freq);
}

void encode_block(std::span<const int> zz_block, int& prev_dc,
                  const HuffmanTable& dc, const HuffmanTable& ac,
                  BitWriter& bw) {
  const int diff = zz_block[0] - prev_dc;
  prev_dc = zz_block[0];
  const int cat = category_of(diff);
  dc.encode(bw, cat);
  put_amplitude(bw, diff, cat);
  encode_ac(zz_block, ac, bw);
}

void decode_block(std::span<int> zz_block, int& prev_dc,
                  const HuffmanTable& dc, const HuffmanTable& ac,
                  BitReader& br) {
  prev_dc += get_amplitude(br, dc.decode(br));
  zz_block[0] = prev_dc;
  decode_ac(zz_block, ac, br);
}

}  // namespace codec_detail
}  // namespace edgestab
