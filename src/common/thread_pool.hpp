// A small fixed-size thread pool. Tasks are plain std::function thunks;
// submit() returns a std::future so callers can join on completion and
// observe exceptions thrown inside the task. With `threads == 1` the pool
// still spawns one worker, so submission order equals execution order and
// results match a serial loop exactly.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace loom {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Joins all workers; tasks already queued still run to completion.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task. The returned future yields the task's result, or
  /// rethrows whatever the task threw.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& f) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task]() { (*task)(); });
    return fut;
  }

  /// Run `fn(i)` for every i in [0, count) across the pool. Always waits
  /// for every submitted task to finish before (re)throwing. If a
  /// submission itself fails, that exception is rethrown; otherwise the
  /// lowest-index task exception is.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool (one worker per hardware thread) shared by the
/// data-parallel kernels — OR-plane builds, the dense-GEMM functional
/// kernel — so nested runner fan-outs queue stripes instead of spawning
/// thread storms. Contract: tasks submitted to this pool must never call
/// parallel_for/submit on it themselves (a worker blocking on its own pool
/// can deadlock); dedicated pools (e.g. the runner's) may block on it
/// freely.
[[nodiscard]] ThreadPool& shared_pool();

/// Resolve a user-facing `jobs` knob against the shared pool: values <= 0
/// mean "one stripe per hardware thread" (the shared pool's size), anything
/// else is taken literally. Shared by the dense-GEMM kernel, the OR-plane
/// builder and the inference server so every subsystem reads the knob the
/// same way.
[[nodiscard]] std::size_t resolve_jobs(int jobs);

}  // namespace loom
