// Parallel run_batch: episode k of a batch becomes job k (seed_base + k,
// result slot k) of the episode executor (runtime/executor.hpp). The
// determinism contract:
//
//   run_batch_parallel(make_agent, make_attacker, cfg, n, seed_base, ...)
//     == run_batch(agent, attacker, cfg, n, seed_base, ...)
//
// element-wise bit-identical, for ANY jobs and lanes count, because every
// episode runs on a freshly reset agent/attacker pair built by the
// factories. Scheduling decides only *where* an episode runs, never *what*
// it computes.
//
// Factories are invoked at most once per lane of each worker, concurrently;
// they must not mutate shared state (see core/experiment.hpp).
#pragma once

#include "core/experiment.hpp"
#include "runtime/thread_pool.hpp"

namespace adsec {

struct ParallelEvalOptions {
  int jobs = 0;                // <= 0 => hardware_jobs()
  bool with_reference = false; // fill deviation_rmse via a reference rollout

  // Episode lanes per worker: > 1 steps that many in-flight episodes in
  // lockstep and batches their policy forward (runtime/executor.hpp).
  // Results stay bit-identical for any value — episode k still uses
  // seed_base + k and slot k — so this is purely a throughput knob.
  int batch_lanes = 1;

  // Called after each finished episode with (episodes done, total), from
  // worker threads — must be thread-safe (e.g. ProgressMeter::tick).
  std::function<void(int, int)> on_progress;
};

std::vector<EpisodeMetrics> run_batch_parallel(const AgentFactory& make_agent,
                                               const AttackerFactory& make_attacker,
                                               const ExperimentConfig& config,
                                               int episodes, std::uint64_t seed_base,
                                               const ParallelEvalOptions& options);

}  // namespace adsec
