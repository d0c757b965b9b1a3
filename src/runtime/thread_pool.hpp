// FIFO thread pool: the execution substrate for the parallel rollout
// runtime. Workers take tasks in submission order from one queue.
//
// Load balancing lives above the pool, not in it: the episode executor
// submits one task per worker and hands out episodes from its own job
// cursor, and serve's dispatcher never submits more tasks than it has
// workers. Tasks are coarse (a worker's whole share of a batch, a request
// group, an orchestrator job), so one mutex around one deque costs nothing
// measurable and keeps the scheduler trivially correct under
// ThreadSanitizer.
//
// Tasks are plain callables; results and exceptions travel through the
// returned std::future. The pool drains every queued task before the
// destructor returns, so a scope-local pool doubles as a join barrier.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/annotations.hpp"
#include "telemetry/trace.hpp"

namespace adsec {

// Usable parallelism of the host; never 0.
inline int hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// Ceiling on the OS threads of any one pool, whatever a flag or spec asks.
inline constexpr int kMaxPoolThreads = 256;

// Workers for a pool that never has more than `tasks` tasks in flight:
// `requested` (<= 0 selects hardware_jobs()) capped at `tasks` and at
// kMaxPoolThreads, never 0. Threads beyond the task count would only sit
// idle.
inline int pool_size_for(int requested, std::size_t tasks) {
  const std::size_t want =
      static_cast<std::size_t>(requested > 0 ? requested : hardware_jobs());
  const std::size_t cap = std::min<std::size_t>(
      std::max<std::size_t>(tasks, 1), static_cast<std::size_t>(kMaxPoolThreads));
  return static_cast<int>(std::clamp<std::size_t>(want, 1, cap));
}

class ThreadPool {
 public:
  // threads <= 0 selects hardware_jobs().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Immutable after construction — workers read it while the constructor
  // is still emplacing threads, so it must not alias workers_.size().
  int size() const { return size_; }

  // Index of the calling thread within its pool ([0, size)), or -1 when
  // called from a thread that is not a pool worker. The evaluation
  // server's per-worker actor caches key off this.
  static int current_worker_index();

  // Enqueue a task at the back of the queue.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable callables.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    // Capture the submitter's trace context so the worker that dequeues
    // the task — possibly fresh from unrelated traced work — parents its
    // spans to the *submitting* span, keeping causality intact across
    // thread hops.
    const telemetry::TraceContext ctx = telemetry::current_trace_context();
    push([task, ctx] {
      telemetry::TraceContextScope scope(ctx);
      (*task)();
    });
    return future;
  }

 private:
  // Per-worker scheduling counters; `idle_ns` is time spent blocked on the
  // condition variable with nothing to run.
  struct WorkerStats {
    std::uint64_t tasks_run{0};
    std::uint64_t idle_ns{0};
  };

  void push(std::function<void()> task) ADSEC_EXCLUDES(mutex_);
  void worker_loop(int index);

  int size_{0};
  std::deque<std::function<void()>> queue_ ADSEC_GUARDED_BY(mutex_);
  std::vector<WorkerStats> stats_ ADSEC_GUARDED_BY(mutex_);  // per-worker
  std::vector<std::thread> workers_;
  Mutex mutex_;  // guards queue_, stats_, done_
  std::condition_variable_any cv_;
  bool done_ ADSEC_GUARDED_BY(mutex_){false};
};

}  // namespace adsec
