#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

namespace adsec {
namespace {

TEST(ThreadPool, SubmitReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> fs;
  for (int i = 0; i < 100; ++i) {
    fs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, SizeAndDefaults) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  ThreadPool hw;  // <= 0 threads => hardware_jobs()
  EXPECT_EQ(hw.size(), hardware_jobs());
  EXPECT_GE(hardware_jobs(), 1);
}

TEST(ThreadPool, PoolSizeForCapsAtTaskCount) {
  // Pure arithmetic: no pool is built for any of these requests.
  EXPECT_EQ(pool_size_for(1'000'000'000, 3), 3);
  EXPECT_EQ(pool_size_for(2, 10), 2);
  EXPECT_EQ(pool_size_for(0, 1'000'000), hardware_jobs());
  EXPECT_EQ(pool_size_for(-7, 1), 1);
  EXPECT_EQ(pool_size_for(8, 0), 1);
}

TEST(ThreadPool, PoolSizeForCapsAtFixedCeiling) {
  // Pure arithmetic: a request and a task count of 1e9 (what
  // `adsec_cli --episodes N --jobs N` could ask for) size a pool of
  // kMaxPoolThreads, and no pool is built here.
  EXPECT_EQ(pool_size_for(1'000'000'000, 1'000'000'000), kMaxPoolThreads);
  EXPECT_EQ(pool_size_for(kMaxPoolThreads + 1, 1'000'000), kMaxPoolThreads);
  EXPECT_EQ(pool_size_for(kMaxPoolThreads, 1'000'000), kMaxPoolThreads);
  EXPECT_EQ(pool_size_for(0, 1'000'000), std::min(hardware_jobs(), kMaxPoolThreads));
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("episode failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, WorkerIndexIsStableAndInRange) {
  ThreadPool pool(4);
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);  // external thread
  std::vector<std::future<int>> fs;
  for (int i = 0; i < 64; ++i) {
    fs.push_back(pool.submit([] { return ThreadPool::current_worker_index(); }));
  }
  for (auto& f : fs) {
    const int w = f.get();
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  // Hold the only worker until every task is queued, so the order checked
  // is the queue's, not the order the submits happened to race the worker.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = pool.submit([gate] { gate.wait(); });

  constexpr int kTasks = 32;
  std::vector<int> order;  // touched only by the worker until the gets below
  std::vector<std::future<void>> fs;
  for (int i = 0; i < kTasks; ++i) {
    fs.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  release.set_value();
  blocker.get();
  for (auto& f : fs) f.get();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, TaskParentsToSubmittingSpan) {
  // The worker runs an unrelated traced task and then, back to back, a task
  // submitted under a span: that task must parent to the submitting span,
  // not to whatever the worker ran before. This suite runs under TSan in
  // CI, so the context hand-off is also race-checked.
  telemetry::clear_trace();
  telemetry::set_tracing_enabled(true);
  {
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    auto blocker = pool.submit([gate] { gate.wait(); });

    auto noise = pool.submit([] { telemetry::SpanGuard span("test.pool.noise"); });
    telemetry::TraceContext submit_ctx;
    telemetry::TraceContext task_ctx;
    std::future<void> task;
    {
      telemetry::SpanGuard submit_span("test.pool.submit");
      submit_ctx = telemetry::current_trace_context();
      task = pool.submit([&task_ctx] {
        telemetry::SpanGuard span("test.pool.task");
        task_ctx = telemetry::current_trace_context();
      });
    }
    release.set_value();
    blocker.get();
    noise.get();
    task.get();

    EXPECT_EQ(task_ctx.trace_id, submit_ctx.trace_id);
    EXPECT_EQ(task_ctx.parent_span_id, submit_ctx.span_id);
  }
  telemetry::set_tracing_enabled(false);
  telemetry::clear_trace();
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ++ran; });
    }
    // No explicit wait: ~ThreadPool must run everything first.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, NestedSubmitFromWorker) {
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 21; });
    return inner.get() * 2;
  });
  EXPECT_EQ(outer.get(), 42);
}

}  // namespace
}  // namespace adsec
