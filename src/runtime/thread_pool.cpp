#include "runtime/thread_pool.hpp"

#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace adsec {

namespace {

// Index of the current thread inside its owning pool. Nested pools are not
// supported (the inner pool's workers are fresh threads, so they simply see
// their own identity).
thread_local int tl_worker_index = -1;

// Pool-wide scheduling metrics, aggregated across all pools in the process
// (pools are scope-local; the registry outlives them all).
struct PoolMetrics {
  telemetry::Counter tasks_run = telemetry::counter("runtime.tasks_run");
  telemetry::Counter idle_ns = telemetry::counter("runtime.idle_ns");
  telemetry::Histogram queue_depth = telemetry::histogram(
      "runtime.queue_depth", {0, 1, 2, 4, 8, 16, 32, 64, 128, 256});
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

ThreadPool::ThreadPool(int threads)
    : size_(threads > 0 ? threads : hardware_jobs()) {
  stats_.resize(static_cast<std::size_t>(size_));
  workers_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();

  // Workers have joined; stats_ is quiescent. Fold this pool's lifetime
  // totals into the process-wide counters and stream the per-worker
  // breakdown so imbalance is visible in the run's event log.
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const WorkerStats& s = stats_[i];
    pool_metrics().tasks_run.inc(s.tasks_run);
    pool_metrics().idle_ns.inc(s.idle_ns);
    telemetry::emit_event("runtime.worker_stats",
                          {{"worker", static_cast<std::uint64_t>(i)},
                           {"tasks_run", s.tasks_run},
                           {"idle_ns", s.idle_ns}});
  }
}

int ThreadPool::current_worker_index() { return tl_worker_index; }

void ThreadPool::push(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    if (done_) throw std::runtime_error("ThreadPool: submit after shutdown");
    queue_.push_back(std::move(task));
    pool_metrics().queue_depth.observe(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(int index) {
  tl_worker_index = index;
  telemetry::set_thread_name("pool.worker-" + std::to_string(index));
  UniqueLock lock(mutex_);
  WorkerStats& my = stats_[static_cast<std::size_t>(index)];
  for (;;) {
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();  // packaged_task captures exceptions into the future
      task = nullptr;
      lock.lock();
      my.tasks_run++;
      continue;
    }
    if (done_) return;  // queue drained and shutdown requested
    const std::uint64_t idle_from = telemetry::monotonic_ns();
    cv_.wait(lock);
    my.idle_ns += telemetry::monotonic_ns() - idle_from;
  }
}

}  // namespace adsec
