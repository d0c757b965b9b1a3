#include "defense/finetune.hpp"

#include "common/config.hpp"
#include "common/logging.hpp"

namespace adsec {

AdversarialDrivingEnv::AdversarialDrivingEnv(
    const ScenarioConfig& scenario, GaussianPolicy attacker, double nominal_ratio,
    std::vector<double> budgets, const CameraConfig& camera,
    const DrivingRewardConfig& reward, const BehaviorConfig& privileged_planner,
    int frame_stack)
    : DrivingEnv(scenario, camera, reward, privileged_planner, frame_stack),
      attacker_(std::move(attacker), /*budget=*/0.0, camera, frame_stack),
      nominal_ratio_(nominal_ratio),
      budgets_(std::move(budgets)),
      budget_rng_(0xdefe11ceULL) {
  set_attack_hook([this](const World& w, const Action&) {
    if (attacker_.budget() == 0.0) return 0.0;
    return attacker_.decide(w);
  });
}

std::vector<double> AdversarialDrivingEnv::reset(std::uint64_t seed) {
  auto obs = DrivingEnv::reset(seed);
  double budget = 0.0;
  if (!budgets_.empty() && !budget_rng_.bernoulli(nominal_ratio_)) {
    budget = budgets_[budget_rng_.uniform_int(static_cast<std::uint32_t>(budgets_.size()))];
  }
  attacker_.set_budget(budget);
  attacker_.reset(world());
  return obs;
}

FinetuneSpec default_finetune_spec(double rho) {
  FinetuneSpec spec;
  spec.nominal_ratio = rho;
  spec.sac.batch_size = 32;
  // Fine-tuning starts from a competent policy: small lr, no random warmup
  // (random actions would wreck the replay distribution), gentle fixed
  // entropy so precision is not washed out, and a critic warm-up before the
  // actor moves.
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
  spec.train.seed = 77;
  return spec;
}

GaussianPolicy adversarial_finetune(const GaussianPolicy& original,
                                    const GaussianPolicy& attacker,
                                    const ScenarioConfig& scenario,
                                    const FinetuneSpec& spec) {
  AdversarialDrivingEnv env(scenario, attacker, spec.nominal_ratio, spec.budgets);
  Rng rng(spec.train.seed);
  Sac sac(original, spec.sac, rng);  // copy of the original actor, fresh critics
  log_info("adversarial_finetune: rho=%.3f steps=%d", spec.nominal_ratio,
           spec.train.total_steps);
  const TrainResult tr = train_sac(sac, env, spec.train);

  // Deploy the best-evaluated iterate — evaluation in this env mixes attack
  // budgets per episode, so its score is exactly the quantity Fig. 6 plots.
  if (tr.best_actor) {
    const double final_ret =
        evaluate_policy(sac, env, 6, spec.train.eval_seed_base + 50);
    if (tr.best_eval_return > final_ret) return *tr.best_actor;
  }
  return sac.actor();
}

}  // namespace adsec
