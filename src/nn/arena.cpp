#include "nn/arena.h"

#include <algorithm>

#include "util/check.h"

namespace edgestab {

std::size_t ActShape::numel() const {
  std::size_t n = 1;
  for (int i = 0; i < rank; ++i) n *= static_cast<std::size_t>(dim(i));
  return n;
}

std::vector<int> ActShape::to_vector() const {
  return std::vector<int>(dims.begin(), dims.begin() + rank);
}

EvalArena& EvalArena::local() {
  thread_local EvalArena arena;
  return arena;
}

EvalArena::Use::Use(EvalArena& arena) : arena_(arena) {
  ES_CHECK_MSG(!arena.in_use_, "nested eval forward on one lane");
  arena.in_use_ = true;
  arena.next_ = -1;
  arena.pinned_ = -1;
}

float* EvalArena::x_inplace() {
  ES_CHECK_MSG(cur_ != pinned_, "in-place layer on the pinned residual");
  return bufs_[static_cast<std::size_t>(cur_)].data();
}

float* EvalArena::next(const ActShape& shape) {
  next_ = 0;
  while (next_ == cur_ || next_ == pinned_) ++next_;
  next_shape_ = shape;
  return grow(bufs_[static_cast<std::size_t>(next_)], shape.numel());
}

void EvalArena::advance() {
  ES_CHECK(next_ >= 0);
  cur_ = next_;
  shape_ = next_shape_;
  next_ = -1;
}

void EvalArena::load(const float* src, const ActShape& shape) {
  std::copy_n(src, shape.numel(), next(shape));
  advance();
}

void EvalArena::pin_residual() {
  ES_CHECK_MSG(pinned_ < 0, "residual already pinned");
  pinned_ = cur_;
  pinned_numel_ = shape_.numel();
}

void EvalArena::add_residual() {
  ES_CHECK(pinned_ >= 0 && pinned_ != cur_ &&
           shape_.numel() == pinned_numel_);
  const std::vector<float>& r = bufs_[static_cast<std::size_t>(pinned_)];
  float* x = x_inplace();
  const std::size_t n = shape_.numel();
  for (std::size_t i = 0; i < n; ++i) x[i] += r[i];
  pinned_ = -1;
}

}  // namespace edgestab
