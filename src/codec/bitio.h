// MSB-first bit stream I/O for the codec family.
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/check.h"

namespace edgestab {

/// MSB-first bit writer over a growable byte buffer.
class BitWriter {
 public:
  /// Write the low `bits` bits of `value` (MSB first). bits in [0, 32].
  void put(std::uint32_t value, int bits);

  /// Flush any partial byte (zero-padded) and return the buffer.
  Bytes finish();

  std::size_t bit_count() const { return bit_count_; }

 private:
  Bytes buf_;
  std::uint64_t acc_ = 0;
  int acc_bits_ = 0;
  std::size_t bit_count_ = 0;
};

/// MSB-first bit reader; throws DecodeError (kTruncated) past the end —
/// the input bytes are untrusted, so running out of bits is a data error
/// trapped at the try_decode boundary, not a programmer error.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Read `bits` bits (MSB first), bits in [0, 32].
  std::uint32_t get(int bits);

  /// Read a single bit.
  int get_bit() { return static_cast<int>(get(1)); }

  /// The next `bits` bits (MSB first) without consuming them; bits in
  /// [0, 32] and at most bits_remaining().
  std::uint32_t peek(int bits) const;

  /// Consume `bits` bits; at most bits_remaining().
  void skip(int bits) {
    ES_DCHECK(bits >= 0 && static_cast<std::size_t>(bits) <= bits_remaining());
    bit_pos_ += static_cast<std::size_t>(bits);
  }

  std::size_t bits_consumed() const { return bit_pos_; }
  std::size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t bit_pos_ = 0;
};

}  // namespace edgestab
