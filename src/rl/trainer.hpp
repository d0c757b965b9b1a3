// Generic SAC training loop with periodic deterministic evaluation and the
// paper's stop rule: "training stops either when the maximum number of
// training steps is reached or when the average reward stabilizes during
// periodic evaluations" (Sec. IV-E).
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "rl/env.hpp"
#include "rl/sac.hpp"

namespace adsec {

struct TrainConfig {
  int total_steps = 30000;
  int start_steps = 1000;       // uniform-random warmup actions
  int update_after = 500;       // begin gradient updates after this many steps
  int update_every = 1;         // env steps between update bursts
  int updates_per_burst = 1;
  int replay_capacity = 60000;

  int eval_every = 3000;        // env steps between evaluations; 0 disables
  int eval_episodes = 3;
  double plateau_eps = 2.0;     // "stabilized" if best eval improves < eps
  int plateau_patience = 4;     // ...for this many consecutive evaluations
  std::uint64_t seed = 1;

  // Episode seeds: training episodes use seed + episode index; evaluation
  // uses eval_seed_base + k to hold the eval scenarios fixed across runs.
  std::uint64_t eval_seed_base = 900000;

  // ---- Resilience (rl/checkpoint.hpp) ----
  // Every checkpoint_every steps the full trainer state is snapshotted in
  // memory (the divergence guard's rollback target) and, when
  // checkpoint_path is set, written to disk through the CRC-checked atomic
  // container. A run resumed from such a checkpoint is bit-identical to the
  // uninterrupted run. 0 disables both.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  // When set, train_sac loads this checkpoint before training. A missing or
  // corrupt file logs a warning and starts fresh (the crash may have been
  // mid-write); a checkpoint from a different TrainConfig throws
  // adsec::Error{Config}.
  std::string resume_from;

  // Divergence guard: when a gradient update produces NaN/Inf anywhere in
  // the losses or network parameters, roll back to the last good snapshot,
  // multiply the learning rates by lr_backoff, and retry — up to
  // max_recoveries times, after which adsec::Error{Diverged} is thrown.
  int max_recoveries = 3;
  double lr_backoff = 0.5;

  // Rejects inconsistent settings with adsec::Error{Config} (called by
  // train_sac; public so callers can validate up front).
  void validate() const;
};

// Diagnostics of the last SAC update of one update burst; collected into
// TrainResult::update_history so telemetry streams and tests can assert on
// loss/alpha trajectories instead of re-deriving them.
struct UpdateStats {
  int step{0};  // env step the burst ran at
  double critic_loss{0.0};
  double actor_loss{0.0};
  double alpha{0.0};
  double critic_grad_norm{0.0};
  double actor_grad_norm{0.0};
};

struct TrainResult {
  std::vector<double> episode_returns;
  std::vector<double> eval_returns;  // mean return at each evaluation
  std::vector<UpdateStats> update_history;  // one entry per update burst
  int steps_done{0};
  bool stopped_on_plateau{false};
  int recoveries{0};  // divergence rollbacks performed during the run

  // Snapshot of the actor at its best evaluation (set when eval_every > 0).
  // SAC's final iterate can be noisier than its best — deploy this one.
  std::optional<GaussianPolicy> best_actor;
  double best_eval_return{-1e300};
};

// Mean deterministic-policy return over `episodes` fresh episodes.
double evaluate_policy(const Sac& sac, Env& env, int episodes,
                       std::uint64_t seed_base);

// Optional per-evaluation callback (step, mean eval return).
using EvalCallback = std::function<void(int, double)>;

// The result carries the divergence-recovery count and best-actor snapshot;
// discarding it would hide a degraded run, hence [[nodiscard]].
[[nodiscard]] TrainResult train_sac(Sac& sac, Env& env, const TrainConfig& config,
                                    const EvalCallback& on_eval = {});

}  // namespace adsec
