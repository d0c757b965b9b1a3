// Episode rollout harness: drives any DrivingAgent through the freeway
// scenario, with an optional attacker on the steering path, and collects
// the paper's metrics. `evaluate_with_reference` additionally rolls the
// same seed WITHOUT the attacker to obtain the reference trajectory for the
// deviation-RMSE metric (the "predetermined path").
#pragma once

#include <functional>
#include <memory>

#include "agents/agent.hpp"
#include "agents/reward.hpp"
#include "attack/adv_reward.hpp"
#include "attack/attacker.hpp"
#include "core/metrics.hpp"
#include "planner/behavior.hpp"
#include "sim/scenario.hpp"

namespace adsec {

struct ExperimentConfig {
  ScenarioConfig scenario;
  DrivingRewardConfig driving_reward;
  AdvRewardConfig adv_reward;
  BehaviorConfig reference_planner;  // privileged planner for reward/reference
};

// One episode, decomposed so a scheduler can interleave many in-flight
// episodes (runtime/executor.hpp): construction seeds the world and
// resets the actors; step() advances one control cycle given the agent's
// decided action for the CURRENT world state; finish() extracts the
// metrics once the episode is over. run_episode() below is exactly
//
//   EpisodeRunner r(agent, attacker, config, seed);
//   while (r.running()) r.step(agent.decide(r.world()));
//   return r.finish(traj_out);
//
// so interleaved and straight-line execution are bit-identical. `config`
// is held by reference and must outlive the runner.
class EpisodeRunner {
 public:
  EpisodeRunner(DrivingAgent& agent, Attacker* attacker,
                const ExperimentConfig& config, std::uint64_t seed);

  bool running() const { return !world_.done(); }
  const World& world() const { return world_; }

  // Apply the attacker, advance the simulation, and accumulate the
  // per-step metrics. Only valid while running().
  void step(Action decided);

  // Finalize and return the episode metrics; call once, after the episode
  // is over. If `traj_out` is non-null the ego trajectory is stored there.
  EpisodeMetrics finish(Trajectory* traj_out = nullptr);

 private:
  Attacker* attacker_;
  const ExperimentConfig& config_;
  World world_;
  BehaviorPlanner planner_;
  EpisodeMetrics m_;
  double plan_dev2_{0.0};
};

// Roll one episode. `attacker` may be null (nominal driving). If `traj_out`
// is non-null the ego (s, d) trajectory is stored there.
EpisodeMetrics run_episode(DrivingAgent& agent, Attacker* attacker,
                           const ExperimentConfig& config, std::uint64_t seed,
                           Trajectory* traj_out = nullptr);

// Attacked episode + nominal reference episode of the same seed; fills
// deviation_rmse. The agent is reset for each of the two runs.
EpisodeMetrics evaluate_with_reference(DrivingAgent& agent, Attacker* attacker,
                                       const ExperimentConfig& config,
                                       std::uint64_t seed);

// Single-episode dispatch shared by the serial and parallel batch runners:
// run_episode or evaluate_with_reference depending on `with_reference`.
// Keeping both runners on this one code path is what makes the parallel
// batch bit-identical to the serial one.
EpisodeMetrics evaluate_episode(DrivingAgent& agent, Attacker* attacker,
                                const ExperimentConfig& config, std::uint64_t seed,
                                bool with_reference);

// Batch evaluation over `episodes` seeds (seed_base + k).
std::vector<EpisodeMetrics> run_batch(DrivingAgent& agent, Attacker* attacker,
                                      const ExperimentConfig& config, int episodes,
                                      std::uint64_t seed_base,
                                      bool with_reference = false);

// Factories for the episode executor (src/runtime). Agents and attackers
// are stateful and non-clonable, so each executor lane constructs its own
// pair. Factories are invoked concurrently from worker threads and
// must therefore only read shared state (e.g. copy a trained policy —
// train or load it *before* entering the parallel region). An empty
// AttackerFactory (or one returning null) means nominal driving.
using AgentFactory = std::function<std::unique_ptr<DrivingAgent>()>;
using AttackerFactory = std::function<std::unique_ptr<Attacker>()>;

// Parallel run_batch. Episode k keeps its serial seed (seed_base + k) and
// its slot k in the result vector, and every episode starts from a freshly
// reset agent/attacker, so the returned metrics are bit-identical to
// run_batch output in the same order, for any thread count. jobs <= 0
// selects hardware_concurrency. Defined in runtime/parallel_eval.cpp; see
// that header for the options overload (progress callbacks).
std::vector<EpisodeMetrics> run_batch_parallel(const AgentFactory& make_agent,
                                               const AttackerFactory& make_attacker,
                                               const ExperimentConfig& config,
                                               int episodes, std::uint64_t seed_base,
                                               bool with_reference = false,
                                               int jobs = 0);

// Summary helpers over a batch.
double success_rate(const std::vector<EpisodeMetrics>& ms);
std::vector<double> collect(const std::vector<EpisodeMetrics>& ms,
                            const std::function<double(const EpisodeMetrics&)>& f);

}  // namespace adsec
