#include "attack/train_attack.hpp"

#include <algorithm>

#include "attack/scripted_attacker.hpp"
#include "common/angle.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "rl/bc.hpp"

namespace adsec {

AttackTrainSpec default_attack_spec(AttackSensorType sensor, double budget) {
  AttackTrainSpec spec;
  spec.env.sensor = sensor;
  spec.env.budget = budget;

  spec.sac.actor_hidden = {64, 64};
  spec.sac.critic_hidden = {64, 64};
  spec.sac.batch_size = 32;
  spec.sac.init_alpha = 0.02;
  spec.sac.auto_alpha = false;  // keep the BC prior from being entropy-washed
  spec.sac.actor_lr = 3e-4;
  spec.sac.actor_delay_updates = scaled_steps(1000, 20);

  spec.train.total_steps = scaled_steps(20000, 200);
  spec.train.start_steps = 0;  // the cloned oracle explores better than noise
  spec.train.update_after = scaled_steps(400, 20);
  spec.train.eval_every = scaled_steps(2500, 100);
  spec.train.eval_episodes = 3;
  spec.train.plateau_eps = 1.0;
  spec.train.plateau_patience = 4;
  spec.train.replay_capacity = 30000;
  spec.train.seed = 42;

  spec.bc_episodes = std::max(4, scaled_steps(30));
  spec.bc_epochs = std::max(5, scaled_steps(30));
  return spec;
}

namespace {

// Roll the oracle through the adversarial MDP, recording (attacker
// observation, normalized oracle action) pairs. Execution noise broadens
// the state coverage; labels stay clean.
void collect_oracle_dataset(AttackEnv& env, const AttackTrainSpec& spec,
                            Matrix& obs_out, Matrix& act_out) {
  ScriptedAttacker oracle(spec.env.budget, spec.env.reward);
  Rng noise_rng(4242);
  std::vector<std::vector<double>> obs_rows;
  std::vector<double> act_rows;
  for (int ep = 0; ep < spec.bc_episodes; ++ep) {
    std::vector<double> obs = env.reset(20000 + static_cast<std::uint64_t>(ep));
    oracle.reset(env.world());
    bool done = false;
    const double noise = (ep % 3 == 0) ? 0.0 : 0.15;
    while (!done) {
      const double delta = oracle.decide(env.world());
      const double label =
          spec.env.budget > 0.0 ? clamp(delta / spec.env.budget, -1.0, 1.0) : 0.0;
      obs_rows.push_back(obs);
      act_rows.push_back(clamp(label, -0.999, 0.999));
      const double executed = clamp(label + noise_rng.normal(0.0, noise), -1.0, 1.0);
      EnvStep s = env.step(std::span<const double>(&executed, 1));
      oracle.post_step(env.world());
      done = s.done;
      obs = std::move(s.obs);
    }
  }
  obs_out = Matrix(static_cast<int>(obs_rows.size()), env.obs_dim());
  act_out = Matrix(static_cast<int>(act_rows.size()), 1);
  for (std::size_t i = 0; i < obs_rows.size(); ++i) {
    for (int j = 0; j < env.obs_dim(); ++j) {
      obs_out(static_cast<int>(i), j) = obs_rows[i][static_cast<std::size_t>(j)];
    }
    act_out(static_cast<int>(i), 0) = act_rows[i];
  }
}

}  // namespace

GaussianPolicy train_attacker(const AttackTrainSpec& spec,
                              std::shared_ptr<DrivingAgent> victim,
                              const GaussianPolicy* teacher) {
  AttackEnv env(spec.env, std::move(victim));
  if (teacher != nullptr) env.set_teacher(*teacher);

  Rng rng(spec.train.seed);
  GaussianPolicy actor =
      GaussianPolicy::make_mlp(env.obs_dim(), spec.sac.actor_hidden, 1, rng);

  if (spec.bc_episodes > 0) {
    Matrix obs, act;
    collect_oracle_dataset(env, spec, obs, act);
    BcConfig bc;
    bc.epochs = spec.bc_epochs;
    const BcResult res = bc_train(actor, obs, act, bc);
    log_info("train_attacker: BC on %d oracle transitions, final MSE %.4f",
             obs.rows(), res.epoch_losses.back());
  }

  Sac sac(std::move(actor), spec.sac, rng);
  log_info("train_attacker: sensor=%s budget=%.2f steps=%d",
           spec.env.sensor == AttackSensorType::Camera ? "camera" : "imu",
           spec.env.budget, spec.train.total_steps);
  const TrainResult tr = train_sac(sac, env, spec.train);

  // Deploy the best-evaluated iterate (the adversarial reward is noisy).
  if (tr.best_actor) {
    const double final_ret =
        evaluate_policy(sac, env, 5, spec.train.eval_seed_base + 100);
    if (tr.best_eval_return > final_ret) return *tr.best_actor;
  }
  return sac.actor();
}

Td3AttackSpec default_td3_attack_spec(double budget) {
  Td3AttackSpec spec;
  spec.env.sensor = AttackSensorType::Camera;
  spec.env.budget = budget;
  spec.td3.batch_size = 32;
  spec.total_steps = scaled_steps(12000, 200);
  spec.bc_episodes = std::max(4, scaled_steps(30));
  spec.bc_epochs = std::max(5, scaled_steps(30));
  return spec;
}

namespace {

// Supervised warm start for the deterministic actor: regress the pre-tanh
// output toward atanh(oracle label).
void bc_regress_mlp(Mlp& net, const Matrix& obs, const Matrix& labels, int epochs,
                    Rng& rng) {
  AdamConfig cfg;
  cfg.lr = 1e-3;
  Adam opt(net.params(), net.grads(), cfg);
  const int n = obs.rows();
  const int batch = 64;
  Matrix bo, bl, grad;  // hoisted batch buffers, resized in place
  for (int e = 0; e < epochs; ++e) {
    for (int start = 0; start < n; start += batch) {
      const int bsz = std::min(batch, n - start);
      bo.resize(bsz, obs.cols());
      bl.resize(bsz, 1);
      for (int i = 0; i < bsz; ++i) {
        const int k = static_cast<int>(rng.uniform_int(static_cast<std::uint32_t>(n)));
        for (int j = 0; j < obs.cols(); ++j) bo(i, j) = obs(k, j);
        bl(i, 0) = std::atanh(clamp(labels(k, 0), -0.99, 0.99));
      }
      const Matrix& u = net.forward(bo);
      grad.resize(bsz, 1);
      for (int i = 0; i < bsz; ++i) grad(i, 0) = 2.0 * (u(i, 0) - bl(i, 0)) / bsz;
      net.backward(grad, BackwardNeeds::params_only());
      opt.step();
    }
  }
}

}  // namespace

Mlp train_td3_attacker(const Td3AttackSpec& spec, std::shared_ptr<DrivingAgent> victim) {
  AttackEnv env(spec.env, std::move(victim));
  Rng rng(spec.seed);
  Td3 td3(env.obs_dim(), 1, spec.td3, rng);

  if (spec.bc_episodes > 0) {
    // Reuse the SAC curriculum's oracle dataset collector.
    AttackTrainSpec proxy;
    proxy.env = spec.env;
    proxy.bc_episodes = spec.bc_episodes;
    Matrix obs, act;
    collect_oracle_dataset(env, proxy, obs, act);
    std::vector<int> dims;
    dims.push_back(env.obs_dim());
    dims.insert(dims.end(), spec.td3.actor_hidden.begin(), spec.td3.actor_hidden.end());
    dims.push_back(1);
    Mlp warm(dims, Activation::ReLU, rng);
    bc_regress_mlp(warm, obs, act, spec.bc_epochs, rng);
    td3.warm_start_actor(warm);
    log_info("train_td3_attacker: BC warm start on %d oracle transitions", obs.rows());
  }

  // Plain off-policy loop (the SAC trainer is tied to the Sac type).
  ReplayBuffer buffer(30000, env.obs_dim(), 1);
  std::uint64_t episode = 0;
  auto obs = env.reset(spec.seed + episode);
  for (int step = 1; step <= spec.total_steps; ++step) {
    const auto action = td3.act(obs, rng);
    EnvStep s = env.step(action);
    buffer.add(obs, action, s.reward, s.obs, s.done);
    obs = std::move(s.obs);
    if (s.done) obs = env.reset(spec.seed + (++episode));
    if (step > 400) td3.update(buffer, rng);
  }
  return td3.actor();
}

}  // namespace adsec
