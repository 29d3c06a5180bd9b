// Per-lane activation arena for the eval forward (Model::infer).
//
// The eval forward never allocates a tensor per layer. Each lane (the
// thread a forward runs on) owns one arena, and every Layer::infer reads
// the arena's current activation and leaves its output there:
//
//   * three activation buffers. A producing layer (conv, depthwise, dense,
//     pooling) reads the current buffer and writes one of the others;
//     in-place layers (batch-norm, ReLU) rewrite the current buffer. An
//     inverted-residual block pins its input as the residual, and the
//     remaining two buffers carry the block's ping-pong.
//   * scratch for im2col and for the int8 tier's quantized operands.
//   * a rows buffer where Model::infer gathers each sample's flat output
//     before the batched tail (see Model::infer).
//
// Storage is plain std::vector — lane infrastructure, not tensors, and
// so not tracked by the profiler (util/alloc_track.h), like the row
// tables in image/resize.cpp and the GEMM panels in
// tensor/kernels_avx2.cpp. The profiler's allocation counts therefore do
// not depend on which lane ran which sample. Buffers only ever grow, to
// one sample's largest activation, so after the first forward at a given
// geometry the eval forward allocates nothing but its logits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace edgestab {

/// Shape of an arena activation: [n, c, h, w] (rank 4) or [n, d] (rank 2).
struct ActShape {
  int rank = 0;
  std::array<int, 4> dims{};

  int dim(int i) const { return dims[static_cast<std::size_t>(i)]; }
  std::size_t numel() const;
  std::vector<int> to_vector() const;
};

class EvalArena {
 public:
  /// The calling thread's arena.
  static EvalArena& local();

  /// The current activation.
  const ActShape& shape() const { return shape_; }
  const float* x() const { return bufs_[static_cast<std::size_t>(cur_)].data(); }
  /// The current activation, for a layer that rewrites it in place.
  float* x_inplace();

  /// Storage for a `shape` activation in a buffer that is neither the
  /// current one nor the pinned residual. The current activation stays
  /// readable until advance() makes this buffer current.
  float* next(const ActShape& shape);
  void advance();

  /// Copy `shape.numel()` floats from `src` in as the current activation.
  void load(const float* src, const ActShape& shape);

  /// Keep the current activation as the residual: no buffer handed out
  /// by next() overlaps it until add_residual() adds it to the then
  /// current activation (same shape) and releases it. One at a time.
  void pin_residual();
  void add_residual();

  /// Scratch of at least `n` elements, valid until the next call of the
  /// same accessor.
  float* cols(std::size_t n) { return grow(cols_, n); }
  float* scales(std::size_t n) { return grow(scales_, n); }
  std::int8_t* qweights(std::size_t n) { return grow(qweights_, n); }
  std::int8_t* qacts(std::size_t n) { return grow(qacts_, n); }
  std::int32_t* acc(std::size_t n) { return grow(acc_, n); }
  float* rows(std::size_t n) { return grow(rows_, n); }

  /// Marks the arena in use for one forward; a nested forward on the same
  /// lane would overwrite live activations, so it fails a check instead.
  class Use {
   public:
    explicit Use(EvalArena& arena);
    ~Use() { arena_.in_use_ = false; }
    Use(const Use&) = delete;
    Use& operator=(const Use&) = delete;

   private:
    EvalArena& arena_;
  };

 private:
  template <typename T>
  static T* grow(std::vector<T>& v, std::size_t n) {
#if defined(__SANITIZE_ADDRESS__)
    // Under AddressSanitizer the tail past `n`, left by an earlier and
    // larger call, is poisoned: an overrun is reported instead of
    // landing in stale data.
    ASAN_UNPOISON_MEMORY_REGION(v.data(), v.size() * sizeof(T));
    if (v.size() < n) v.resize(n);
    ASAN_POISON_MEMORY_REGION(v.data() + n, (v.size() - n) * sizeof(T));
#else
    if (v.size() < n) v.resize(n);
#endif
    return v.data();
  }

  std::array<std::vector<float>, 3> bufs_;
  int cur_ = 0;
  int next_ = -1;
  int pinned_ = -1;
  std::size_t pinned_numel_ = 0;
  ActShape shape_;
  ActShape next_shape_;
  bool in_use_ = false;

  std::vector<float> cols_, scales_, rows_;
  std::vector<std::int8_t> qweights_, qacts_;
  std::vector<std::int32_t> acc_;
};

}  // namespace edgestab
