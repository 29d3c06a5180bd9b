// MSB-first bit stream I/O for the codec family.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "codec/status.h"
#include "util/bytes.h"
#include "util/check.h"

namespace edgestab {

/// MSB-first bit writer over a growable byte buffer.
class BitWriter {
 public:
  /// Write the low `bits` bits of `value` (MSB first). bits in [0, 32].
  void put(std::uint32_t value, int bits) {
    ES_DCHECK(bits >= 0 && bits <= 32);
    if (bits == 0) return;
    if (bits < 32) value &= (1u << bits) - 1u;
    acc_ = (acc_ << bits) | value;
    acc_bits_ += bits;
    bit_count_ += static_cast<std::size_t>(bits);
    while (acc_bits_ >= 8) {
      acc_bits_ -= 8;
      buf_.push_back(static_cast<std::uint8_t>(acc_ >> acc_bits_));
    }
  }

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
  std::uint32_t get(int bits) {
    ES_DCHECK(bits >= 0 && bits <= 32);
    if (static_cast<std::size_t>(bits) > bits_remaining()) [[unlikely]]
      throw_truncated();
    const std::uint32_t out = peek(bits);
    bit_pos_ += static_cast<std::size_t>(bits);
    return out;
  }

  /// Read a single bit.
  int get_bit() { return static_cast<int>(get(1)); }

  /// The next `bits` bits (MSB first) without consuming them; bits in
  /// [0, 32] and at most bits_remaining().
  std::uint32_t peek(int bits) const {
    ES_DCHECK(bits >= 0 && bits <= 32 &&
              static_cast<std::size_t>(bits) <= bits_remaining());
    if (bits == 0) return 0;
    // An 8-byte big-endian window starting at the current byte holds the
    // <= 7 already-consumed bits of that byte plus the <= 32 wanted ones.
    // Within the last 7 bytes it is built byte by byte, and bytes past
    // the end read as zero and are never part of the result.
    const std::size_t byte = bit_pos_ >> 3;
    const std::size_t avail = data_.size() - byte;
    std::uint64_t window = 0;
    if (avail >= 8) {
      std::memcpy(&window, data_.data() + byte, 8);
      if constexpr (std::endian::native == std::endian::little)
        window = __builtin_bswap64(window);
    } else {
      for (std::size_t i = 0; i < avail; ++i)
        window = (window << 8) | data_[byte + i];
      window <<= 8 * (8 - avail);
    }
    return static_cast<std::uint32_t>((window << (bit_pos_ & 7)) >>
                                      (64 - bits));
  }

  /// Consume `bits` bits; at most bits_remaining().
  void skip(int bits) {
    ES_DCHECK(bits >= 0 && static_cast<std::size_t>(bits) <= bits_remaining());
    bit_pos_ += static_cast<std::size_t>(bits);
  }

  std::size_t bits_consumed() const { return bit_pos_; }
  std::size_t bits_remaining() const { return data_.size() * 8 - bit_pos_; }

 private:
  [[noreturn]] static void throw_truncated();

  std::span<const std::uint8_t> data_;
  std::size_t bit_pos_ = 0;
};

}  // namespace edgestab
