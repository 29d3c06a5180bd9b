#include "codec/bitio.h"

#include <algorithm>

#include "codec/status.h"

namespace edgestab {

void BitWriter::put(std::uint32_t value, int bits) {
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

Bytes BitWriter::finish() {
  if (acc_bits_ > 0) {
    buf_.push_back(
        static_cast<std::uint8_t>(acc_ << (8 - acc_bits_)));
    acc_bits_ = 0;
  }
  acc_ = 0;
  return std::move(buf_);
}

std::uint32_t BitReader::get(int bits) {
  ES_DCHECK(bits >= 0 && bits <= 32);
  ES_DECODE_CHECK(bit_pos_ + static_cast<std::size_t>(bits) <=
                      data_.size() * 8,
                  DecodeStatus::kTruncated, "bit stream truncated");
  const std::uint32_t out = peek(bits);
  bit_pos_ += static_cast<std::size_t>(bits);
  return out;
}

std::uint32_t BitReader::peek(int bits) const {
  ES_DCHECK(bits >= 0 && bits <= 32 &&
            static_cast<std::size_t>(bits) <= bits_remaining());
  if (bits == 0) return 0;
  // An 8-byte big-endian window starting at the current byte holds the
  // <= 7 already-consumed bits of that byte plus the <= 32 wanted ones;
  // bytes past the end read as zero and are never part of the result.
  const std::size_t byte = bit_pos_ >> 3;
  const std::size_t avail = std::min<std::size_t>(8, data_.size() - byte);
  std::uint64_t window = 0;
  for (std::size_t i = 0; i < avail; ++i)
    window = (window << 8) | data_[byte + i];
  window <<= 8 * (8 - avail);
  return static_cast<std::uint32_t>((window << (bit_pos_ & 7)) >>
                                    (64 - bits));
}

}  // namespace edgestab
