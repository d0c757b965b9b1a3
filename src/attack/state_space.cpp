#include "attack/state_space.hpp"

#include <cmath>
#include <stdexcept>

#include "common/angle.hpp"

namespace adsec {

std::vector<double> steering_obs_gradient(GaussianPolicy& policy,
                                          const std::vector<double>& obs) {
  if (static_cast<int>(obs.size()) != policy.obs_dim()) {
    throw std::invalid_argument("steering_obs_gradient: obs dim mismatch");
  }
  Trunk& trunk = policy.trunk();
  trunk.forward(Matrix::from_vector(obs));
  // Head layout is [mu | log_std]; pre-tanh steering mean is index 0, and
  // tanh is monotone, so its gradient direction equals the action's. The
  // probe leaves the parameter grads untouched.
  Matrix dhead(1, trunk.out_dim());
  dhead(0, 0) = 1.0;
  return trunk.backward(dhead, BackwardNeeds::input_only()).to_vector();
}

std::vector<double> fgsm_perturb(const std::vector<double>& obs,
                                 const std::vector<double>& grad, double eps,
                                 double direction) {
  if (obs.size() != grad.size()) {
    throw std::invalid_argument("fgsm_perturb: size mismatch");
  }
  std::vector<double> out(obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const double sign = grad[i] > 0.0 ? 1.0 : (grad[i] < 0.0 ? -1.0 : 0.0);
    out[i] = obs[i] + eps * direction * sign;
  }
  return out;
}

FgsmAttackedE2EAgent::FgsmAttackedE2EAgent(GaussianPolicy policy, double eps,
                                           const CameraConfig& camera,
                                           int frame_stack,
                                           const AdvRewardConfig& reward)
    : policy_(std::move(policy)),
      observer_(camera, frame_stack),
      eps_(eps),
      reward_(reward) {
  if (policy_.obs_dim() != observer_.dim()) {
    throw std::invalid_argument("FgsmAttackedE2EAgent: obs dim mismatch");
  }
  if (policy_.act_dim() != 2) {
    throw std::invalid_argument("FgsmAttackedE2EAgent: policy must output [nu, gamma]");
  }
}

void FgsmAttackedE2EAgent::reset(const World& world) {
  observer_.reset(world);
  total_injected_ = 0.0;
}

Action FgsmAttackedE2EAgent::decide(const World& world) {
  std::vector<double> obs = observer_.observe(world);

  const int target = world.target_npc_index();
  if (eps_ > 0.0 && target >= 0 && critical_moment(world, target, reward_.beta)) {
    // Push the steering output toward the target NPC's side.
    const auto& npc = world.npcs()[static_cast<std::size_t>(target)];
    const Vec2 rel = npc.vehicle().state().position - world.ego().state().position;
    const double bearing = angle_diff(rel.heading(), world.ego().state().heading);
    const double direction = bearing >= 0.0 ? 1.0 : -1.0;

    const auto grad = steering_obs_gradient(policy_, obs);
    obs = fgsm_perturb(obs, grad, eps_, direction);
    total_injected_ += eps_ * static_cast<double>(obs.size());
  }

  row_into(obs_mat_, obs);
  policy_.mean_action_into(obs_mat_, act_mat_);
  Action act;
  act.steer_variation = act_mat_(0, 0);
  act.thrust_variation = act_mat_(0, 1);
  return act;
}

}  // namespace adsec
