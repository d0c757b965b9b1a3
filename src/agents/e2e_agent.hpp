// End-to-end DRL driving agent (paper Sec. III-C): a SAC-trained policy
// mapping stacked semantic-camera frames directly to actuation variations
// [nu, gamma]. At deployment the policy is fixed and deterministic (mean
// action), matching the paper's attack assumption of stationary victim
// dynamics.
#pragma once

#include "agents/agent.hpp"
#include "agents/batch_policy.hpp"
#include "nn/gaussian_policy.hpp"
#include "sensors/camera.hpp"

namespace adsec {

// Implements BatchPolicy: decide() is exactly stage -> mean-action forward
// -> decode, so the executor's lane loop can run one B x obs_dim forward for a
// whole fleet of in-flight episodes with bit-identical results.
class E2EAgent : public DrivingAgent, public BatchPolicy {
 public:
  E2EAgent(GaussianPolicy policy, const CameraConfig& camera_config = {},
           int frame_stack = 3, std::string name = "e2e");

  void reset(const World& world) override;
  Action decide(const World& world) override;
  std::string name() const override { return name_; }

  int policy_obs_dim() const override { return observer_.dim(); }
  int policy_act_dim() const override { return 2; }
  void stage_observation(const World& world, std::span<double> row) override;
  void policy_forward(const Matrix& obs, Matrix& act) const override;
  Action action_from_row(std::span<const double> row) const override;

  const GaussianPolicy& policy() const { return policy_; }
  // Mutable access drops the pre-packed weights: the caller may be about to
  // change the policy, and packs must never outlive the weights they froze.
  GaussianPolicy& policy() {
    packs_.clear();
    packed_ = false;
    return policy_;
  }
  int obs_dim() const { return observer_.dim(); }

 private:
  GaussianPolicy policy_;
  StackedCameraObserver observer_;
  std::string name_;
  Matrix obs_mat_, act_mat_;  // decide() staging, reused every control cycle
  // Pre-packed trunk weights, built lazily on the first forward: safe
  // because policy_ is this agent's private copy and the only mutation
  // door (non-const policy()) drops the packs. mutable for lazy packing
  // and the automatic repack when a test switches the dispatch tier;
  // like the staging matrices, not for concurrent use of one agent.
  mutable std::vector<WeightPack> packs_;
  mutable bool packed_{false};
};

}  // namespace adsec
