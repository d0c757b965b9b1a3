// Capability interface for cross-episode batched inference.
//
// A DrivingAgent whose decide() is "stage an observation, run one fixed
// policy forward, decode the action row" can additionally implement
// BatchPolicy. The episode executor's lane loop (runtime/executor.hpp)
// detects the capability via dynamic_cast and then amortizes the policy
// forwards of N in-flight episodes into ONE B x obs_dim GEMM per control
// step:
//
//   gather:   lane i  ->  stage_observation(world_i, obs.row(i))
//   forward:  policy_forward(obs, act)        // one batched MLP forward
//   scatter:  action_from_row(act.row(i))  ->  lane i
//
// Contract (what makes batched == serial bit-identical):
//   * stage_observation must advance exactly the sensor state decide()
//     would (same pushes, same values), writing the observation instead of
//     returning it;
//   * policy_forward must be row-independent and implemented on the
//     *_into kernel path, whose row-batched forwards are bit-identical to
//     per-row forwards within a dispatch tier (see nn/simd.hpp);
//   * action_from_row must apply exactly decide()'s post-processing;
//   * decide(world) must remain equivalent to the staged sequence — the
//     executor falls back to per-lane decide() for non-batchable agents
//     and runs fleets of one through plain evaluate_episode().
//
// The executor may run the forward on ANY lane's agent, so factories must
// produce identical policies — the same requirement the parallel batch
// runner already imposes (core/experiment.hpp).
#pragma once

#include <span>

#include "agents/agent.hpp"
#include "nn/matrix.hpp"

namespace adsec {

class BatchPolicy {
 public:
  virtual ~BatchPolicy() = default;

  virtual int policy_obs_dim() const = 0;
  virtual int policy_act_dim() const = 0;

  // Write this agent's observation of `world` into `row` (length
  // policy_obs_dim()), advancing sensor state exactly like decide().
  virtual void stage_observation(const World& world, std::span<double> row) = 0;

  // act = policy(obs): obs is B x policy_obs_dim(), act resized to
  // B x policy_act_dim(). Must be const — the executor runs it on one
  // lane's agent for the whole fleet.
  virtual void policy_forward(const Matrix& obs, Matrix& act) const = 0;

  // Decode one scattered action row into the Action decide() would return.
  virtual Action action_from_row(std::span<const double> row) const = 0;
};

}  // namespace adsec
