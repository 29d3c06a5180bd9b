// Bounded MPMC queue — the backpressure primitive of the streaming
// service.
//
// Both queue hops in the pipeline (scheduler → lanes → aggregator) are
// one of these: a fixed-capacity mutex+condvar queue whose push() blocks
// when the consumer has fallen behind. That blocking, with the
// scheduler's lead cap over the shots parked in open inference groups,
// IS the backpressure policy: memory stays bounded however skewed stage
// costs are.
//
// Determinism note: which lane pops which record is scheduling-
// dependent, but stage bodies are pure functions of the record (DESIGN.md
// §17), so order only affects wall clock. The high-water mark is the one
// deliberately nondeterministic reading — it feeds the progress heartbeat
// and the observational half of the soak report, never a digest.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "util/check.h"

namespace edgestab::service {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    ES_CHECK_MSG(capacity > 0, "BoundedQueue capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room (backpressure), then enqueue. Returns
  /// false — dropping `item` — once the queue is closed; producers use
  /// that as their shutdown signal during an early stop.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    ++pushed_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed and
  /// drained; nullopt means "no more work will ever arrive".
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Close the queue: pending items remain poppable, new pushes fail,
  /// and blocked waiters wake. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Close and discard pending items (early-stop teardown: unblocks
  /// producers without handing their records to anyone).
  void close_and_drain() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      items_.clear();
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }
  long long pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t high_water_ = 0;
  long long pushed_ = 0;
  bool closed_ = false;
};

}  // namespace edgestab::service
