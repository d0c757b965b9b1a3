#include "defense/pnn_agent.hpp"

#include <stdexcept>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "nn/pnn.hpp"

namespace adsec {

PnnSwitchedAgent::PnnSwitchedAgent(GaussianPolicy original, GaussianPolicy pnn_column,
                                   double sigma, const CameraConfig& camera,
                                   int frame_stack)
    : original_(std::move(original)),
      pnn_column_(std::move(pnn_column)),
      observer_(camera, frame_stack),
      sigma_(sigma) {
  if (original_.obs_dim() != observer_.dim() || pnn_column_.obs_dim() != observer_.dim()) {
    throw std::invalid_argument("PnnSwitchedAgent: obs dim mismatch");
  }
}

void PnnSwitchedAgent::reset(const World& world) { observer_.reset(world); }

Action PnnSwitchedAgent::decide(const World& world) {
  obs_mat_.resize(1, observer_.dim());
  observer_.observe_into(world, obs_mat_.row(0));
  const GaussianPolicy& active = using_adversarial_column() ? pnn_column_ : original_;
  active.mean_action_into(obs_mat_, act_mat_);
  Action act;
  act.steer_variation = act_mat_(0, 0);
  act.thrust_variation = act_mat_(0, 1);
  return act;
}

void PnnSwitchedAgent::stage_observation(const World& world, std::span<double> row) {
  observer_.observe_into(world, row);
}

void PnnSwitchedAgent::policy_forward(const Matrix& obs, Matrix& act) const {
  const GaussianPolicy& active = using_adversarial_column() ? pnn_column_ : original_;
  active.mean_action_into(obs, act);
}

Action PnnSwitchedAgent::action_from_row(std::span<const double> row) const {
  Action act;
  act.steer_variation = row[0];
  act.thrust_variation = row[1];
  return act;
}

std::string PnnSwitchedAgent::name() const {
  return "pnn-sigma=" + fmt(sigma_, 1);
}

PnnTrainSpec default_pnn_spec() {
  PnnTrainSpec spec;
  spec.sac.batch_size = 32;
  spec.sac.actor_lr = 1e-4;
  spec.sac.critic_lr = 1e-3;
  spec.sac.init_alpha = 0.01;
  spec.sac.auto_alpha = false;
  spec.sac.actor_delay_updates = scaled_steps(1000, 20);
  spec.train.total_steps = scaled_steps(25000, 200);
  spec.train.start_steps = 0;
  spec.train.update_after = scaled_steps(400, 20);
  spec.train.eval_every = scaled_steps(2500, 120);
  spec.train.eval_episodes = 4;
  spec.train.plateau_eps = 2.0;
  spec.train.plateau_patience = 6;
  spec.train.replay_capacity = 30000;
  spec.train.seed = 91;
  return spec;
}

GaussianPolicy train_pnn_column(const GaussianPolicy& original,
                                const GaussianPolicy& attacker,
                                const ScenarioConfig& scenario,
                                const PnnTrainSpec& spec) {
  const auto* base = dynamic_cast<const Mlp*>(&original.trunk());
  if (base == nullptr) {
    throw std::invalid_argument("train_pnn_column: original trunk must be an Mlp");
  }
  Rng rng(spec.train.seed);
  GaussianPolicy column(
      std::make_unique<PnnTrunk>(*base, /*init_from_base=*/true, rng),
      original.act_dim());

  // The PNN column specializes in adversarial episodes: nominal_ratio = 0.
  AdversarialDrivingEnv env(scenario, attacker, /*nominal_ratio=*/0.0, spec.budgets);
  Sac sac(std::move(column), spec.sac, rng);
  log_info("train_pnn_column: steps=%d", spec.train.total_steps);
  const TrainResult tr = train_sac(sac, env, spec.train);
  if (tr.best_actor) {
    const double final_ret =
        evaluate_policy(sac, env, 6, spec.train.eval_seed_base + 50);
    if (tr.best_eval_return > final_ret) return *tr.best_actor;
  }
  return sac.actor();
}

}  // namespace adsec
