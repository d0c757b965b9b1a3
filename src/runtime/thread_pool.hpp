// Work-stealing thread pool: the execution substrate for the parallel
// rollout runtime. Each worker owns a deque; it pops its own tasks LIFO
// (cache locality for chains submitted from inside the pool) and steals
// FIFO from the other workers when its deque runs dry, so imbalanced
// workloads — episodes that end early on a collision next to full-length
// ones — still keep every core busy.
//
// Tasks are plain callables; results and exceptions travel through the
// returned std::future. The pool drains every queued task before the
// destructor returns, so a scope-local pool doubles as a join barrier.
//
// Granularity note: tasks here are whole episodes (milliseconds), so a
// single mutex guarding all deques costs nothing measurable and keeps the
// scheduler trivially correct under ThreadSanitizer.
#pragma once

#include <condition_variable>
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

// Per-worker scheduling counters, maintained under the pool mutex. `stolen`
// counts tasks this worker took from another worker's deque; `idle_ns` is
// time spent blocked on the condition variable with nothing to run.
struct WorkerStats {
  std::uint64_t tasks_run{0};
  std::uint64_t tasks_stolen{0};
  std::uint64_t idle_ns{0};
};

class WorkStealingPool {
 public:
  // threads <= 0 selects hardware_jobs().
  explicit WorkStealingPool(int threads = 0);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  // Immutable after construction — workers read it while the constructor
  // is still emplacing threads, so it must not alias workers_.size().
  int size() const { return size_; }

  // Index of the calling thread within its pool ([0, size)), or -1 when
  // called from a thread that is not a pool worker. The evaluation
  // server's per-worker actor caches key off this.
  static int current_worker_index();

  // Snapshot of per-worker scheduling counters (one entry per worker).
  // Consistent: taken under the pool mutex, so counts from completed tasks
  // are always fully visible.
  std::vector<WorkerStats> worker_stats() const;

  // Enqueue a task. From an external thread the task lands on the workers'
  // deques round-robin; from inside the pool it lands on the calling
  // worker's own deque (LIFO slot). Either way any idle worker may steal it.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    return enqueue(-1, std::forward<F>(f));
  }

  // Enqueue onto a specific worker's deque. The task still runs wherever it
  // is dequeued — pinning only chooses the *home* deque, which is exactly
  // what the stealing tests exploit to force a steal deterministically.
  template <typename F>
  auto submit_to(int worker, F&& f)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    return enqueue(worker, std::forward<F>(f));
  }

 private:
  template <typename F>
  auto enqueue(int worker, F&& f)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable callables.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    // Capture the submitter's trace context so whichever worker dequeues
    // the task — including a stealer mid-span of unrelated work — parents
    // its spans to the *submitting* span, keeping causality intact across
    // thread hops.
    const telemetry::TraceContext ctx = telemetry::current_trace_context();
    push(worker, [task, ctx] {
      telemetry::TraceContextScope scope(ctx);
      (*task)();
    });
    return future;
  }

  void push(int worker, std::function<void()> task) ADSEC_EXCLUDES(mutex_);
  bool try_take(int self, std::function<void()>& out) ADSEC_REQUIRES(mutex_);
  void worker_loop(int index);

  int size_{0};
  std::vector<std::deque<std::function<void()>>> queues_ ADSEC_GUARDED_BY(mutex_);
  std::vector<WorkerStats> stats_ ADSEC_GUARDED_BY(mutex_);  // per-worker
  std::vector<std::thread> workers_;
  mutable Mutex mutex_;  // guards queues_, stats_, next_, done_
  std::condition_variable_any cv_;
  std::size_t next_ ADSEC_GUARDED_BY(mutex_){0};  // round-robin submit cursor
  bool done_ ADSEC_GUARDED_BY(mutex_){false};
};

}  // namespace adsec
