#include "codec/bitio.h"

namespace edgestab {

Bytes BitWriter::finish() {
  if (acc_bits_ > 0) {
    buf_.push_back(
        static_cast<std::uint8_t>(acc_ << (8 - acc_bits_)));
    acc_bits_ = 0;
  }
  acc_ = 0;
  return std::move(buf_);
}

void BitReader::throw_truncated() {
  throw DecodeError(DecodeStatus::kTruncated, "bit stream truncated");
}

}  // namespace edgestab
