// Fixed-size worker pool for instance-level parallelism.
//
// Two usage patterns, both over independent jobs:
//
//   * parallel_for_dynamic(n, body): lanes (workers + the calling thread)
//     claim index blocks of [0, n) off a shared counter and the caller
//     blocks until every index is done.  BatchRunner spreads whole
//     simulations (sweep points) across the pool this way, which is where
//     the wall-clock win lives: one instance's cycles are too fine-grained
//     to split across threads.
//   * submit(fn) -> future: enqueue one independent task.
//
// The pool never spins: idle workers sleep on a condition variable.  A
// pool of size 0 is legal and means "no worker threads": both patterns
// degenerate to inline execution on the caller, which keeps thread-count
// sweeps (including 1) trivial to express.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace sysdp::sim {

class ThreadPool {
 public:
  /// `workers` worker threads in addition to the calling thread;
  /// `default_workers()` picks hardware_concurrency - 1.
  explicit ThreadPool(std::size_t workers = default_workers());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (the calling thread adds one more
  /// lane during parallel_for_dynamic).
  [[nodiscard]] std::size_t num_workers() const noexcept {
    return workers_.size();
  }
  /// Concurrent lanes available to parallel_for_dynamic: workers + caller.
  [[nodiscard]] std::size_t num_lanes() const noexcept {
    return workers_.size() + 1;
  }

  [[nodiscard]] static std::size_t default_workers() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }

  /// Run body(i) for every i in [0, n), blocking until all are done.
  /// Lanes *claim* `grain`-sized index blocks off a shared counter, so
  /// jobs of wildly different cost keep every lane busy until the work
  /// runs out, at the cost of one atomic fetch-add per block — which is
  /// why tiny jobs should be claimed several at a time (grain).
  /// `grain == 0` picks a heuristic; which indices run on which lane is
  /// scheduling-dependent, so bodies must not care (BatchRunner's
  /// index-addressed result slots satisfy this by construction).  body
  /// must not recursively call parallel_for_dynamic on the same pool.
  /// Exceptions thrown by body terminate.
  void parallel_for_dynamic(std::size_t n,
                            const std::function<void(std::size_t)>& body,
                            std::size_t grain = 0);

  /// Enqueue one independent task; returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();  // no workers: run inline
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  struct DynJob;

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace sysdp::sim
