// Canonical Huffman coding (length-limited), shared by all codecs.
//
// Tables are built per-image from symbol frequencies, serialized to the
// bitstream as code lengths (4 bits each), and reconstructed canonically
// on decode — the same scheme baseline JPEG and DEFLATE use.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/bitio.h"
#include "util/check.h"

namespace edgestab {

class HuffmanTable {
 public:
  static constexpr int kMaxBits = 15;
  /// Width of the first-level decode table: codes up to this long decode
  /// with one peek; longer ones continue bit by bit.
  static constexpr int kLookupBits = 9;

  /// Build an optimal (length-limited) code for the given frequencies.
  /// Symbols with zero frequency get no code. At least one symbol must
  /// have nonzero frequency.
  static HuffmanTable from_frequencies(std::span<const std::uint64_t> freqs);

  /// Reconstruct a table from canonical code lengths.
  static HuffmanTable from_lengths(std::vector<std::uint8_t> lengths);

  int symbol_count() const { return static_cast<int>(lengths_.size()); }
  const std::vector<std::uint8_t>& lengths() const { return lengths_; }

  /// Emit the code for `symbol` (must have a code).
  void encode(BitWriter& bw, int symbol) const {
    ES_DCHECK(symbol >= 0 && symbol < symbol_count());
    const std::uint8_t len = lengths_[static_cast<std::size_t>(symbol)];
    if (len == 0) [[unlikely]]
      throw_no_code(symbol);
    bw.put(codes_[static_cast<std::size_t>(symbol)], len);
  }

  /// Decode one symbol. Throws DecodeError kTruncated when the stream
  /// ends inside a code and kCorrupt when no code matches within
  /// kMaxBits bits.
  int decode(BitReader& br) const {
    if (br.bits_remaining() >= static_cast<std::size_t>(kLookupBits)) {
      const std::uint32_t entry = lookup_[br.peek(kLookupBits)];
      if (entry != 0) {
        br.skip(static_cast<int>(entry & 15u));
        return static_cast<int>(entry >> 4);
      }
    }
    return decode_long(br);
  }

  /// Serialize code lengths (u16 count + 4 bits per symbol).
  void write_table(BitWriter& bw) const;
  static HuffmanTable read_table(BitReader& br);

  /// Total encoded size in bits for the given frequencies (for tests and
  /// rate estimation).
  std::uint64_t cost_bits(std::span<const std::uint64_t> freqs) const;

 private:
  void build_canonical();
  void build_lookup();
  [[noreturn]] static void throw_no_code(int symbol);
  /// decode() past the lookup table: codes longer than kLookupBits, and
  /// every code in the stream's last kLookupBits - 1 bits.
  int decode_long(BitReader& br) const;
  /// The canonical bit-serial decode, continuing from the `len - 1` bits
  /// already read into `code`.
  int decode_serial(BitReader& br, std::uint32_t code, int len) const;

  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint16_t> codes_;
  // Canonical decode acceleration: per length, first code value and the
  // index of its first symbol in sorted order.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint16_t> sorted_symbols_;
  // First-level decode table indexed by the next kLookupBits bits:
  // (symbol << 4) | code length for the shortest code that is a prefix
  // of them, 0 when no code of <= kLookupBits bits is.
  std::vector<std::uint32_t> lookup_;
};

}  // namespace edgestab
