// Minimal fixed-size thread pool behind runtime::run_deterministic_batches
// (runtime/batch.h), the one fan-out in src/.
//
// Deliberately small: one FIFO queue, std::future results, exceptions
// propagated through std::packaged_task. Determinism is NOT the pool's
// job -- tasks built on counter-based RNG streams (rt::split_seed) are
// order-independent by construction, so the pool only has to execute
// every task exactly once.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/narrow.h"

namespace rt::runtime {

/// Hardware concurrency with a floor of 1 (hardware_concurrency may
/// report 0 on exotic platforms).
[[nodiscard]] unsigned hardware_threads();

class ThreadPool {
 public:
  /// Spawns `threads` workers (floored to 1).
  explicit ThreadPool(unsigned threads);

  /// Drains all queued work, then joins the workers: every future handed
  /// out by submit() is ready after destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return narrow_cast<unsigned>(workers_.size()); }

  /// Enqueues `fn` and returns a future for its result. A task that
  /// throws stores the exception in the future (rethrown at get()).
  /// Submitting from inside a running task is allowed and cannot
  /// deadlock: workers never hold the queue lock while executing.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    auto future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      RT_ENSURE(!stopping_, "submit() on a ThreadPool that is shutting down");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rt::runtime
