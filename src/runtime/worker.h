// Long-lived coordinating threads for resident services.
//
// Compute belongs on the thread pool (thread_pool.h): the streaming
// service runs its per-shot work as one parallel region of pool lanes.
// What stays outside the pool are the threads that only coordinate for
// the whole run — the service's admission scheduler and its aggregator —
// and they must still honor the two contracts pool lanes honor:
//
//   * task-context propagation (task_context.h): a WorkerGroup thread
//     adopts the spawner's captured context for its entire body, so
//     profiler spans and tracked allocations (checkpoint bytes) made
//     there attribute to the run's tree, not to an anonymous thread;
//   * exception containment: a throwing body would std::terminate the
//     process from a raw std::thread; here the first exception per
//     group is captured and rethrown from join(), like run_chunks.
#pragma once

#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/task_context.h"

namespace edgestab::runtime {

/// A set of named worker threads joined (and their first exception
/// rethrown) by join(); the destructor joins but swallows, so stack
/// unwinding never terminates the process.
class WorkerGroup {
 public:
  WorkerGroup() = default;
  ~WorkerGroup() {
    try {
      join();
    } catch (...) {
      // Destructor path: the owner already gave up on the result.
    }
  }

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  /// Spawn one worker running `body`. The spawner's task context is
  /// captured here and installed on the new thread for the body's whole
  /// lifetime.
  void spawn(std::function<void()> body) {
    const TaskContextHooks* hooks = task_context_hooks();
    void* context = hooks != nullptr && hooks->capture != nullptr
                        ? hooks->capture()
                        : nullptr;
    threads_.emplace_back([this, hooks, context,
                           body = std::move(body)]() mutable {
      void* previous = nullptr;
      if (hooks != nullptr && hooks->install != nullptr)
        previous = hooks->install(context);
      try {
        body();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      if (hooks != nullptr && hooks->restore != nullptr)
        hooks->restore(previous);
    });
  }

  /// Join every worker; rethrows the first exception any body raised.
  void join() {
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
    threads_.clear();
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::swap(error, first_error_);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::exception_ptr first_error_;
};

}  // namespace edgestab::runtime
