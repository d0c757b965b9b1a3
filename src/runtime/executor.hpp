// The episode executor: the one place episodes of a batch are rolled.
// run_batch_parallel (CLI, benches), the evaluation server and the
// orchestrator all hand it a job list; serial run_batch stays the
// reference oracle it is tested against.
//
// Workers. `threads` resolved to 1 runs on the calling thread; otherwise
// one pool task per worker. Each worker owns a lane fleet of up to
// min(lanes, jobs) agent/attacker pairs, built lazily from the factories,
// and refills its lanes by claiming the next job index from one shared
// cursor — so work balances dynamically whatever the episode lengths.
//
// Lanes. A fleet of one runs the plain evaluate_episode loop. A larger
// fleet advances its in-flight episodes in lockstep: each control cycle
// it gathers every live lane's observation into one B x obs_dim matrix,
// runs ONE policy forward, and scatters the action rows back (agents that
// do not implement BatchPolicy fall back to per-lane decide()).
//
// Determinism contract: every job's result is bit-identical to
// evaluate_episode(seed, with_reference) run serially, for ANY threads and
// lanes. This holds because (a) every episode is fully determined by its
// seed and the reset state of its actors — EpisodeRunner reseeds the
// world, and reset() re-initializes every stateful actor (FrameStack
// refills all slots, NoiseAttacker reseeds) — and (b) a BatchPolicy
// forward is row-independent and bit-identical per row to the 1-row
// decide() forward (the per-tier ascending-k contract in nn/matrix.hpp).
// Scheduling decides only *where and when* an episode runs, never what it
// computes.
//
// Errors. A lane whose factory or episode throws records its job index and
// retires; no job above the lowest failed index is claimed, and execute()
// rethrows the lowest-index error once every worker stopped — the error
// serial run_batch would have raised first.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/experiment.hpp"

namespace adsec {

// One episode's worth of work. `out` must stay valid until execute()
// returns; `with_reference` runs the same-seed nominal episode first and
// fills deviation_rmse, exactly like evaluate_with_reference.
struct EpisodeJob {
  std::uint64_t seed = 0;
  bool with_reference = false;
  EpisodeMetrics* out = nullptr;
};

// One lane's actors. Factories must build identical pairs (the batched
// forward runs on any lane's policy for every row), and must only read
// shared state — workers invoke them concurrently.
struct LaneActors {
  std::unique_ptr<DrivingAgent> agent;
  std::unique_ptr<Attacker> attacker;  // null => nominal driving
};
using LaneFleet = std::vector<LaneActors>;

struct ExecuteOptions {
  int threads = 1;  // workers, capped at the job count and kMaxPoolThreads;
                    // <= 1 => calling thread
  int lanes = 1;    // episode lanes per worker

  // Called after each finished job with (jobs done, total), from worker
  // threads — must be thread-safe (e.g. ProgressMeter::tick).
  std::function<void(int, int)> on_progress;

  // Single-worker runs only: the calling thread's fleet, grown as needed
  // and kept by the caller across calls (the server's per-worker actor
  // cache). Null => a fresh fleet per call.
  LaneFleet* fleet = nullptr;
};

void execute(const AgentFactory& make_agent, const AttackerFactory& make_attacker,
             const ExperimentConfig& config, std::span<const EpisodeJob> jobs,
             const ExecuteOptions& options);

}  // namespace adsec
