#include "orchestrator/dag.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>
#include <tuple>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "orchestrator/chaos.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/spec.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/telemetry.hpp"

namespace adsec::orch {

namespace {

struct DagMetrics {
  telemetry::Counter cells_cached = telemetry::counter("orch.cells_cached");
  telemetry::Counter cells_computed = telemetry::counter("orch.cells_computed");
  telemetry::Counter cells_failed = telemetry::counter("orch.cells_failed");
  telemetry::Counter retries = telemetry::counter("orch.job_retries");
  telemetry::Counter timeouts = telemetry::counter("orch.job_timeouts");
};

DagMetrics& dag_metrics() {
  static DagMetrics m;
  return m;
}

// Retry backoff: min(base << (attempt - 1), max) ms, times a jitter factor.
constexpr double kBackoffBaseMs = 1.0;
constexpr double kBackoffMaxMs = 50.0;
constexpr std::uint64_t kBackoffSeed = 0x0badc0ffeeULL;

// How often the deadline watchdog rescans running jobs.
constexpr int kWatchdogPollMs = 5;

// Transient failures are worth retrying: the same inputs may succeed on the
// next attempt (I/O hiccup, admission backpressure, a corrupt artifact that
// its owner re-creates, an internal fault from the chaos harness). Config,
// Usage, and Diverged are properties of the job itself — retrying cannot
// change the outcome.
bool is_transient(ErrorCode code) {
  switch (code) {
    case ErrorCode::Io:
    case ErrorCode::Internal:
    case ErrorCode::Rejected:
    case ErrorCode::Corrupt:
      return true;
    case ErrorCode::Config:
    case ErrorCode::Usage:
    case ErrorCode::Diverged:
      return false;
  }
  return false;
}

struct Job {
  std::string name;
  // Literal span name by job kind (span names must be literals — only the
  // pointer is stored); the job identity travels in flight notes instead.
  const char* span_name{"orch.job"};
  int cell_index{-1};  // >= 0 identifies an eval job
  std::function<void()> body;
  std::vector<std::size_t> dependents;
  int deps_remaining{0};
  JobState state{JobState::Pending};
  int retries{0};
  std::string error_class;
  std::string message;
  std::uint64_t deadline_ns{0};
};

class GridExecution {
 public:
  GridExecution(std::vector<Job> jobs, const GridOptions& options)
      : jobs_(std::move(jobs)), options_(options) {}

  void run() {
    if (jobs_.empty()) return;
    // Find the roots before any job runs: a finishing job decrements its
    // dependents' deps_remaining under mu_, and an unlocked scan between
    // submissions would race with it.
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].deps_remaining == 0) roots.push_back(i);
    }
    ThreadPool pool(pool_size_for(options_.jobs, jobs_.size()));
    std::thread watchdog;
    if (options_.deadline_ms > 0) {
      watchdog = std::thread([this] { watchdog_loop(); });
    }
    for (const std::size_t i : roots) submit(pool, i);
    {
      UniqueLock lock(mu_);
      // Manual wait loop: a predicate lambda would be analyzed as a
      // separate function and could not see that mu_ is held.
      while (terminal_ != jobs_.size()) cv_.wait(lock);
    }
    if (watchdog.joinable()) watchdog.join();
    // The pool destructor drains queued lambdas; anything still enqueued
    // for a non-Pending job no-ops.
  }

  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }
  [[nodiscard]] std::exception_ptr crash() const {
    MutexLock lock(mu_);
    return crash_;
  }

 private:
  void submit(ThreadPool& pool, std::size_t i) {
    std::ignore = pool.submit([this, &pool, i] { run_job(pool, i); });
  }

  void run_job(ThreadPool& pool, std::size_t i) {
    {
      MutexLock lock(mu_);
      Job& j = jobs_[i];
      if (j.state != JobState::Pending) return;  // skipped or crash-stopped
      j.state = JobState::Running;
      if (options_.deadline_ms > 0) {
        j.deadline_ns = telemetry::monotonic_ns() +
                        static_cast<std::uint64_t>(options_.deadline_ms) *
                            1000000ull;
      }
    }
    // The job span parents to whatever submitted it (the orch.grid root for
    // first-wave jobs, the finishing parent job for dependents — the pool
    // carries the submitter's context), and it encloses finish(), so
    // dependent submissions inherit *this* span: the executed DAG is one
    // rooted trace whose parent links mirror the dependency edges.
    // span_name is always one of the "orch.*" literals set at job-creation
    // sites, routed through the Job member. adsec-lint: allow(span-name)
    telemetry::SpanGuard span(jobs_[i].span_name);
    telemetry::flight_note("orch.job_start", static_cast<std::uint64_t>(i));
    // Deterministic jitter stream per job index: reruns back off identically.
    Rng jitter(kBackoffSeed ^
               (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(i) + 1)));
    int attempt = 0;
    while (true) {
      try {
        jobs_[i].body();
        finish(pool, i, JobState::Done, "", "");
        return;
      } catch (const InjectedCrash&) {
        record_crash(i, std::current_exception());
        return;
      } catch (const Error& e) {
        if (is_transient(e.code()) && attempt < kMaxJobRetries &&
            still_running(i)) {
          ++attempt;
          {
            MutexLock lock(mu_);
            jobs_[i].retries = attempt;
          }
          dag_metrics().retries.inc();
          back_off(attempt, jitter);
          continue;
        }
        finish(pool, i, JobState::Failed, error_code_name(e.code()), e.what());
        return;
      } catch (const std::exception& e) {
        finish(pool, i, JobState::Failed, "internal", e.what());
        return;
      }
    }
  }

  void back_off(int attempt, Rng& jitter) {
    const int shift = std::min(attempt - 1, 16);
    double ms = kBackoffBaseMs * static_cast<double>(1u << shift);
    ms = std::min(ms, kBackoffMaxMs);
    // Full jitter in [ms/2, ms): decorrelates retry storms while staying
    // deterministic for a given (seed, job, attempt).
    ms = ms * (0.5 + 0.5 * jitter.uniform());
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0)));
  }

  bool still_running(std::size_t i) {
    MutexLock lock(mu_);
    return jobs_[i].state == JobState::Running && crash_ == nullptr;
  }

  void finish(ThreadPool& pool, std::size_t i, JobState state,
              std::string error_class, std::string message) {
    std::vector<std::size_t> ready;
    {
      MutexLock lock(mu_);
      Job& j = jobs_[i];
      if (j.state != JobState::Running) return;  // watchdog got here first
      j.state = state;
      j.error_class = std::move(error_class);
      j.message = std::move(message);
      telemetry::flight_note(state == JobState::Done ? "orch.job_done"
                                                     : "orch.job_failed",
                             static_cast<std::uint64_t>(i));
      ++terminal_;
      if (state == JobState::Done) {
        for (const std::size_t d : j.dependents) {
          if (--jobs_[d].deps_remaining == 0 && crash_ == nullptr) {
            ready.push_back(d);
          }
        }
      } else {
        skip_dependents_locked(i);
      }
      notify_progress_locked();
    }
    for (const std::size_t d : ready) submit(pool, d);
  }

  // A failed/timed-out/skipped job poisons everything downstream of it.
  void skip_dependents_locked(std::size_t i) ADSEC_REQUIRES(mu_) {
    for (const std::size_t d : jobs_[i].dependents) {
      Job& dep = jobs_[d];
      --dep.deps_remaining;
      if (dep.state == JobState::Pending) {
        dep.state = JobState::Skipped;
        dep.error_class = "skipped_dependency";
        dep.message = "dependency '" + jobs_[i].name + "' did not complete";
        ++terminal_;
        skip_dependents_locked(d);
      }
    }
  }

  void record_crash(std::size_t i, std::exception_ptr eptr) {
    MutexLock lock(mu_);
    if (crash_ == nullptr) crash_ = eptr;
    Job& j = jobs_[i];
    if (j.state == JobState::Running) {
      j.state = JobState::Failed;
      j.error_class = "crash";
      j.message = "injected crash";
      ++terminal_;
    }
    // The "process" is dead: nothing not already running ever starts.
    for (Job& p : jobs_) {
      if (p.state == JobState::Pending) {
        p.state = JobState::Skipped;
        p.error_class = "crash";
        p.message = "process crashed before this job ran";
        ++terminal_;
      }
    }
    cv_.notify_all();
  }

  void watchdog_loop() {
    UniqueLock lock(mu_);
    while (terminal_ < jobs_.size()) {
      const std::uint64_t now = telemetry::monotonic_ns();
      for (std::size_t i = 0; i < jobs_.size(); ++i) {
        Job& j = jobs_[i];
        if (j.state == JobState::Running && j.deadline_ns != 0 &&
            now > j.deadline_ns) {
          j.state = JobState::TimedOut;
          j.error_class = "deadline";
          j.message = "exceeded " + std::to_string(options_.deadline_ms) +
                      " ms deadline";
          ++terminal_;
          dag_metrics().timeouts.inc();
          skip_dependents_locked(i);
          notify_progress_locked();
        }
      }
      cv_.wait_for(lock,
                   std::chrono::milliseconds(kWatchdogPollMs));
    }
  }

  void notify_progress_locked() ADSEC_REQUIRES(mu_) {
    if (options_.on_progress) {
      options_.on_progress(static_cast<int>(terminal_),
                           static_cast<int>(jobs_.size()));
    }
    cv_.notify_all();
  }

  // Job bodies and span names are immutable after construction and read
  // without the lock; the mutable Job fields (state, retries, error text,
  // deps_remaining, deadline) are only touched under mu_. The analyzer
  // cannot express a per-field split inside a vector element, so jobs_
  // itself stays unannotated.
  std::vector<Job> jobs_;
  const GridOptions& options_;
  mutable Mutex mu_;
  std::condition_variable_any cv_;
  std::size_t terminal_ ADSEC_GUARDED_BY(mu_){0};
  std::exception_ptr crash_ ADSEC_GUARDED_BY(mu_){nullptr};
};

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::TimedOut: return "timed_out";
    case JobState::Skipped: return "skipped";
  }
  return "unknown";
}

GridReport run_cells(ResultStore& store, PolicyZoo& zoo,
                     const std::vector<Cell>& cells,
                     const GridOptions& options) {
  // Upfront validation: a bad name means the whole grid is unusable —
  // Error{Config} before any work, not a per-cell failure at minute 40.
  for (const Cell& cell : cells) serve::validate_request(to_request(cell));
  // Two equal keys would make two eval jobs for one store entry, and the
  // merger would add that cell's episodes twice.
  std::map<std::uint64_t, std::size_t> first_of_key;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const auto [it, fresh] = first_of_key.emplace(cell_key(cells[ci]).value, ci);
    if (!fresh) {
      throw Error(ErrorCode::Usage,
                  "grid: cells " + std::to_string(it->second) + " and " +
                      std::to_string(ci) + " are the same cell (" +
                      canonical_config(cells[ci]) + ")");
    }
  }

  GridReport report;
  report.cells_total = static_cast<int>(cells.size());

  crash_point("grid.start");

  // Phase 1: content-addressed lookup. Finished cells never become jobs.
  std::vector<bool> cached(cells.size(), false);
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (store.lookup(cells[ci]).has_value()) {
      cached[ci] = true;
      ++report.cells_cached;
      dag_metrics().cells_cached.inc();
    }
  }

  // Phase 2: build the DAG — train-victim -> train-attacker -> evaluate.
  // Training jobs warm the zoo (train-on-miss) so evaluation jobs find
  // every learned policy already cached; one victim job per agent name and
  // one attacker job per (agent, attacker) pair, shared across budgets and
  // seeds.
  std::vector<Job> jobs;
  std::map<std::string, std::size_t> victim_jobs;    // agent -> job index
  std::map<std::string, std::size_t> attacker_jobs;  // agent|attacker -> idx
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (cached[ci]) continue;
    const Cell& cell = cells[ci];

    std::size_t victim = 0;
    const auto vit = victim_jobs.find(cell.agent);
    if (vit == victim_jobs.end()) {
      Job j;
      j.name = "train:" + cell.agent;
      j.span_name = "orch.train";
      j.body = [&zoo, cell] {
        maybe_inject("orch.job");
        crash_point("train.victim");
        serve::EvalRequest req = to_request(cell);
        req.attacker = "none";
        const serve::ResolvedSpec spec = serve::resolve_spec(zoo, req);
        const std::unique_ptr<DrivingAgent> agent = spec.agent();
      };
      victim = jobs.size();
      victim_jobs.emplace(cell.agent, victim);
      jobs.push_back(std::move(j));
    } else {
      victim = vit->second;
    }

    std::size_t parent = victim;
    if (cell.attacker != "none") {
      const std::string pair = cell.agent + "|" + cell.attacker;
      const auto ait = attacker_jobs.find(pair);
      if (ait == attacker_jobs.end()) {
        Job j;
        j.name = "train:" + pair;
        j.span_name = "orch.train";
        j.body = [&zoo, cell] {
          maybe_inject("orch.job");
          crash_point("train.attacker");
          const serve::ResolvedSpec spec =
              serve::resolve_spec(zoo, to_request(cell));
          if (spec.attacker) {
            const std::unique_ptr<Attacker> attacker = spec.attacker();
          }
        };
        j.deps_remaining = 1;
        parent = jobs.size();
        attacker_jobs.emplace(pair, parent);
        jobs[victim].dependents.push_back(parent);
        jobs.push_back(std::move(j));
      } else {
        parent = ait->second;
      }
    }

    Job j;
    j.name = "eval:" + canonical_config(cell);
    j.span_name = "orch.eval";
    j.cell_index = static_cast<int>(ci);
    j.body = [&zoo, &store, cell] {
      maybe_inject("orch.job");
      crash_point("job.start");
      const serve::ResolvedSpec spec =
          serve::resolve_spec(zoo, to_request(cell));
      // One worker, one lane: the cell's episodes run in seed order on one
      // agent/attacker pair, as serial run_batch runs them. More lanes
      // would change imu cells, whose sensor noise carries over from one
      // episode to the next on the same attacker.
      CellResult result;
      result.episodes = run_batch_parallel(spec.agent, spec.attacker, spec.config,
                                           cell.episodes, cell.seed,
                                           cell.with_reference, /*jobs=*/1);
      crash_point("job.computed");
      store.put(cell, result);
    };
    j.deps_remaining = 1;
    jobs[parent].dependents.push_back(jobs.size());
    jobs.push_back(std::move(j));
  }

  GridExecution exec(std::move(jobs), options);
  {
    // Root span for the run: first-wave jobs are submitted (from run(), on
    // this thread) while it is live, so every job span in the executed DAG
    // walks its parent links back to this single root.
    telemetry::SpanGuard grid_span("orch.grid");
    exec.run();
  }
  if (exec.crash() != nullptr) std::rethrow_exception(exec.crash());

  crash_point("grid.done");

  // Phase 3: report, in job-creation (canonical) order.
  for (const Job& j : exec.jobs()) {
    if (j.state == JobState::Done) {
      if (j.cell_index >= 0) {
        ++report.cells_computed;
        dag_metrics().cells_computed.inc();
      }
      continue;
    }
    if (j.cell_index >= 0) {
      ++report.cells_failed;
      dag_metrics().cells_failed.inc();
    }
    report.failures.push_back(
        JobOutcome{j.name, j.state, j.error_class, j.message, j.retries});
    const JobOutcome& out = report.failures.back();
    log_warn("grid: job '%s' %s (%s, %d retries): %s", out.name.c_str(),
             to_string(out.state), out.error_class.c_str(), out.retries,
             out.message.c_str());
  }
  if (report.cells_failed > 0 && telemetry::flight_enabled()) {
    // Failed cells survive the run (the grid completes degraded), so the
    // ring still holds the job_start/job_failed notes that explain them.
    telemetry::dump_flight_recorder("orch.cells_failed");
  }
  return report;
}

GridReport run_grid(ResultStore& store, PolicyZoo& zoo, const GridSpec& grid,
                    const GridOptions& options) {
  return run_cells(store, zoo, expand_grid(grid), options);
}

}  // namespace adsec::orch
