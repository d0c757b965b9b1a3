// Job DAG runner: turns a cell list into train -> evaluate jobs, schedules
// them over the runtime's thread pool, and wraps every job in a robustness
// envelope.
//
// Per-job envelope:
//   - bounded retries with exponential backoff + deterministic jitter for
//     *transient* failures (Io/Internal/Rejected/Corrupt per
//     common/error.hpp); Config/Usage/Diverged are permanent and fail the
//     job immediately;
//   - a per-job deadline enforced by a watchdog thread: a job past its
//     deadline is marked TimedOut and its dependents Skipped while the rest
//     of the grid keeps draining (cooperative: the wedged body's eventual
//     result is discarded, the thread itself cannot be preempted);
//   - graceful degradation: a permanently failed cell never aborts the
//     grid; the report lists it with its error class and retry count and
//     every other cell still completes and commits.
//
// Finished cells commit to the ResultStore as soon as they are computed, so
// a crash loses at most in-flight work; a resumed run finds every committed
// cell by content address and never recomputes it.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/zoo.hpp"
#include "orchestrator/cell.hpp"
#include "orchestrator/store.hpp"

namespace adsec::orch {

enum class JobState { Pending, Running, Done, Failed, TimedOut, Skipped };

[[nodiscard]] const char* to_string(JobState s);

struct JobOutcome {
  std::string name;         // "eval:<canonical config>" or "train:<agent>|<attacker>"
  JobState state{JobState::Pending};
  std::string error_class;  // error_code_name() / "deadline" / "skipped_dependency"
  std::string message;
  int retries{0};
};

// Transient-failure retries per job (JobOutcome::retries never exceeds it).
inline constexpr int kMaxJobRetries = 2;

struct GridOptions {
  int jobs{1};             // pool width, capped at the DAG's job count;
                           // <= 0 selects hardware_jobs()
  int deadline_ms{0};      // per-job deadline; 0 disables the watchdog
  std::function<void(int, int)> on_progress;  // (terminal jobs, total jobs)
};

struct GridReport {
  int cells_total{0};
  int cells_cached{0};    // served from the store, not recomputed
  int cells_computed{0};  // evaluated and committed this run
  int cells_failed{0};    // eval jobs that did not reach Done
  std::vector<JobOutcome> failures;  // every non-Done job, canonical order
  [[nodiscard]] bool complete() const { return cells_failed == 0; }
};

// Run a cell list to quiescence. Throws upfront, before any work:
// Error{Config} for invalid names (the whole list is unusable), and
// Error{Usage} for two cells with equal keys (merging would count that
// cell's episodes twice). Propagates InjectedCrash from chaos tests;
// everything else is absorbed into the report.
[[nodiscard]] GridReport run_cells(ResultStore& store, PolicyZoo& zoo,
                                   const std::vector<Cell>& cells,
                                   const GridOptions& options = {});

// run_cells(expand_grid(grid)).
[[nodiscard]] GridReport run_grid(ResultStore& store, PolicyZoo& zoo,
                                  const GridSpec& grid,
                                  const GridOptions& options = {});

}  // namespace adsec::orch
