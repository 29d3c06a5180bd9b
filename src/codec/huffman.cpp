#include "codec/huffman.h"

#include <algorithm>
#include <queue>
#include <string>

#include "codec/status.h"
#include "util/check.h"

namespace edgestab {

namespace {

/// Compute code lengths by building a Huffman tree over nonzero-frequency
/// symbols. Returns per-symbol depths.
std::vector<std::uint8_t> tree_lengths(std::span<const std::uint64_t> freqs) {
  struct Node {
    std::uint64_t freq;
    int left = -1, right = -1;
    int symbol = -1;
  };
  std::vector<Node> nodes;
  using HeapItem = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], -1, -1, static_cast<int>(s)});
    heap.emplace(freqs[s], static_cast<int>(nodes.size()) - 1);
  }
  ES_CHECK_MSG(!heap.empty(), "huffman: all frequencies zero");
  if (heap.size() == 1) {
    // Single symbol: give it a 1-bit code.
    std::vector<std::uint8_t> lens(freqs.size(), 0);
    lens[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return lens;
  }
  while (heap.size() > 1) {
    auto [fa, a] = heap.top();
    heap.pop();
    auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, a, b, -1});
    heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  std::vector<std::uint8_t> lens(freqs.size(), 0);
  // Iterative DFS assigning depths.
  std::vector<std::pair<int, int>> stack{{static_cast<int>(nodes.size()) - 1, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.symbol >= 0) {
      lens[static_cast<std::size_t>(n.symbol)] =
          static_cast<std::uint8_t>(std::max(depth, 1));
    } else {
      stack.emplace_back(n.left, depth + 1);
      stack.emplace_back(n.right, depth + 1);
    }
  }
  return lens;
}

}  // namespace

HuffmanTable HuffmanTable::from_frequencies(
    std::span<const std::uint64_t> freqs) {
  ES_CHECK(!freqs.empty());
  // Length-limit by halving frequencies until the tree fits kMaxBits —
  // simple and near-optimal for our alphabet sizes.
  std::vector<std::uint64_t> f(freqs.begin(), freqs.end());
  std::vector<std::uint8_t> lens;
  for (;;) {
    lens = tree_lengths(f);
    std::uint8_t max_len =
        *std::max_element(lens.begin(), lens.end());
    if (max_len <= kMaxBits) break;
    for (auto& v : f)
      if (v > 0) v = (v + 1) / 2;
  }
  return from_lengths(std::move(lens));
}

HuffmanTable HuffmanTable::from_lengths(std::vector<std::uint8_t> lengths) {
  HuffmanTable t;
  t.lengths_ = std::move(lengths);
  t.build_canonical();
  return t;
}

void HuffmanTable::build_canonical() {
  const int n = symbol_count();
  codes_.assign(static_cast<std::size_t>(n), 0);
  // Sort symbols by (length, symbol) — canonical order.
  sorted_symbols_.clear();
  for (int s = 0; s < n; ++s)
    if (lengths_[static_cast<std::size_t>(s)] > 0)
      sorted_symbols_.push_back(static_cast<std::uint16_t>(s));
  std::sort(sorted_symbols_.begin(), sorted_symbols_.end(),
            [&](std::uint16_t a, std::uint16_t b) {
              if (lengths_[a] != lengths_[b]) return lengths_[a] < lengths_[b];
              return a < b;
            });
  // Reached from read_table with attacker-controlled lengths, so invalid
  // length distributions are decode errors, not aborts.
  ES_DECODE_CHECK(!sorted_symbols_.empty(), DecodeStatus::kCorrupt,
                  "huffman: empty code");

  first_code_.assign(kMaxBits + 2, 0);
  first_index_.assign(kMaxBits + 2, 0);
  std::uint32_t code = 0;
  std::size_t idx = 0;
  for (int len = 1; len <= kMaxBits; ++len) {
    first_code_[static_cast<std::size_t>(len)] = code;
    first_index_[static_cast<std::size_t>(len)] =
        static_cast<std::uint32_t>(idx);
    while (idx < sorted_symbols_.size() &&
           lengths_[sorted_symbols_[idx]] == len) {
      codes_[sorted_symbols_[idx]] = static_cast<std::uint16_t>(code);
      ++code;
      ++idx;
    }
    code <<= 1;
  }
  ES_DECODE_CHECK(idx == sorted_symbols_.size(), DecodeStatus::kCorrupt,
                  "huffman: lengths exceed kMaxBits");
  build_lookup();
}

void HuffmanTable::build_lookup() {
  // Canonical codes of different lengths never share a prefix, so each
  // entry is written at most once. In an over-subscribed table (read_table
  // accepts any lengths) the codes run past their length's range: such a
  // code matches no bit pattern in the bit-serial decode either, nor do
  // the codes after it at that length.
  lookup_.assign(std::size_t{1} << kLookupBits, 0);
  for (int len = 1; len <= kLookupBits; ++len) {
    const auto l = static_cast<std::size_t>(len);
    const std::uint32_t first = first_code_[l];
    const int shift = kLookupBits - len;
    for (std::uint32_t i = first_index_[l]; i < first_index_[l + 1]; ++i) {
      const std::uint32_t code = first + (i - first_index_[l]);
      if (code >= (1u << len)) break;
      const std::uint32_t entry =
          (static_cast<std::uint32_t>(sorted_symbols_[i]) << 4) |
          static_cast<std::uint32_t>(len);
      for (std::uint32_t p = code << shift; p < (code + 1) << shift; ++p)
        lookup_[p] = entry;
    }
  }
}

void HuffmanTable::throw_no_code(int symbol) {
  detail::check_failed("len > 0", __FILE__, __LINE__,
                       "huffman: encoding symbol with no code: " +
                           std::to_string(symbol));
}

int HuffmanTable::decode_long(BitReader& br) const {
  // Near the end of the stream a code may be longer than what is left,
  // so the short tail always takes the bit-serial path: it reads exactly
  // as many bits as the code needs and reports truncation where it runs
  // out.
  if (br.bits_remaining() < static_cast<std::size_t>(kLookupBits))
    return decode_serial(br, 0, 1);
  const std::uint32_t bits = br.peek(kLookupBits);
  br.skip(kLookupBits);
  return decode_serial(br, bits, kLookupBits + 1);
}

int HuffmanTable::decode_serial(BitReader& br, std::uint32_t code,
                                int len) const {
  for (; len <= kMaxBits; ++len) {
    code = (code << 1) | static_cast<std::uint32_t>(br.get_bit());
    std::uint32_t first = first_code_[static_cast<std::size_t>(len)];
    std::uint32_t index = first_index_[static_cast<std::size_t>(len)];
    // Count of codes at this length.
    std::uint32_t next_index =
        (len < kMaxBits) ? first_index_[static_cast<std::size_t>(len) + 1]
                         : static_cast<std::uint32_t>(sorted_symbols_.size());
    std::uint32_t count = next_index - index;
    if (code >= first && code < first + count)
      return sorted_symbols_[index + (code - first)];
  }
  ES_DECODE_CHECK(false, DecodeStatus::kCorrupt,
                  "huffman: invalid code in stream");
  return -1;
}

void HuffmanTable::write_table(BitWriter& bw) const {
  bw.put(static_cast<std::uint32_t>(symbol_count()), 16);
  for (std::uint8_t len : lengths_) bw.put(len, 4);
}

HuffmanTable HuffmanTable::read_table(BitReader& br) {
  int n = static_cast<int>(br.get(16));
  ES_DECODE_CHECK(n > 0 && n <= 4096, DecodeStatus::kCorrupt,
                  "huffman: bad table size " << n);
  std::vector<std::uint8_t> lens(static_cast<std::size_t>(n));
  for (auto& len : lens) len = static_cast<std::uint8_t>(br.get(4));
  return from_lengths(std::move(lens));
}

std::uint64_t HuffmanTable::cost_bits(
    std::span<const std::uint64_t> freqs) const {
  ES_CHECK(freqs.size() == lengths_.size());
  std::uint64_t bits = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    bits += freqs[s] * lengths_[s];
  return bits;
}

}  // namespace edgestab
