#include "rl/td3.hpp"

#include <algorithm>
#include <cmath>

#include "common/angle.hpp"

namespace adsec {

Td3::Td3(int obs_dim, int act_dim, const Td3Config& config, Rng& rng)
    : config_(config), act_dim_(act_dim) {
  std::vector<int> adims;
  adims.push_back(obs_dim);
  adims.insert(adims.end(), config.actor_hidden.begin(), config.actor_hidden.end());
  adims.push_back(act_dim);
  actor_ = Mlp(adims, Activation::ReLU, rng);
  actor_target_ = actor_;

  std::vector<int> qdims;
  qdims.push_back(obs_dim + act_dim);
  qdims.insert(qdims.end(), config.critic_hidden.begin(), config.critic_hidden.end());
  qdims.push_back(1);
  q1_ = Mlp(qdims, Activation::ReLU, rng);
  q2_ = Mlp(qdims, Activation::ReLU, rng);
  q1_target_ = q1_;
  q2_target_ = q2_;

  AdamConfig a;
  a.lr = config.actor_lr;
  actor_opt_ = std::make_unique<Adam>(actor_.params(), actor_.grads(), a);
  AdamConfig c;
  c.lr = config.critic_lr;
  q1_opt_ = std::make_unique<Adam>(q1_.params(), q1_.grads(), c);
  q2_opt_ = std::make_unique<Adam>(q2_.params(), q2_.grads(), c);
}

void Td3::warm_start_actor(const Mlp& net) {
  actor_.soft_update_from(net, 1.0);
  actor_target_.soft_update_from(net, 1.0);
}

void Td3::actor_forward_inference_into(const Matrix& obs, Matrix& out) const {
  actor_.forward_inference_into(obs, out);
  apply_activation(Activation::Tanh, out);
}

std::vector<double> Td3::act(std::span<const double> obs, Rng& rng,
                             bool deterministic) const {
  act_obs_.resize(1, static_cast<int>(obs.size()));
  std::copy(obs.begin(), obs.end(), act_obs_.data());
  actor_forward_inference_into(act_obs_, act_a_);
  std::vector<double> out(act_a_.data(), act_a_.data() + act_a_.cols());
  if (!deterministic) {
    for (auto& v : out) v = clamp(v + rng.normal(0.0, config_.explore_noise), -1.0, 1.0);
  }
  return out;
}

void Td3::update(const ReplayBuffer& buffer, Rng& rng) {
  if (buffer.size() < config_.batch_size) return;
  Scratch& s = scratch_;
  buffer.sample_into(config_.batch_size, rng, s.batch);
  const int B = config_.batch_size;

  // ---- Targets with policy smoothing.
  actor_target_.forward_inference_into(s.batch.next_obs, s.next_a);
  apply_activation(Activation::Tanh, s.next_a);
  for (std::size_t i = 0; i < s.next_a.size(); ++i) {
    const double noise = clamp(rng.normal(0.0, config_.target_noise),
                               -config_.target_clip, config_.target_clip);
    s.next_a.data()[i] = clamp(s.next_a.data()[i] + noise, -1.0, 1.0);
  }
  hconcat_into(s.qin_next, s.batch.next_obs, s.next_a);
  q1_target_.forward_inference_into(s.qin_next, s.q1n);
  q2_target_.forward_inference_into(s.qin_next, s.q2n);
  s.y.resize(B, 1);
  for (int i = 0; i < B; ++i) {
    s.y(i, 0) = s.batch.rew(i, 0) + config_.gamma * (1.0 - s.batch.done(i, 0)) *
                                        std::min(s.q1n(i, 0), s.q2n(i, 0));
  }

  // ---- Critic regression.
  hconcat_into(s.qin, s.batch.obs, s.batch.act);
  double closs = 0.0;
  for (Mlp* q : {&q1_, &q2_}) {
    const Matrix& qv = q->forward(s.qin);
    s.grad.resize(B, 1);
    for (int i = 0; i < B; ++i) {
      const double err = qv(i, 0) - s.y(i, 0);
      closs += err * err / (2.0 * B);
      s.grad(i, 0) = 2.0 * err / B;
    }
    q->backward(s.grad, BackwardNeeds::params_only());
  }
  last_critic_loss_ = closs;
  q1_opt_->step();
  q2_opt_->step();
  ++updates_;

  // ---- Delayed deterministic policy gradient + target sync.
  if (updates_ % config_.policy_delay != 0) return;

  s.a.copy_from(actor_.forward(s.batch.obs));  // cached for backward
  apply_activation(Activation::Tanh, s.a);
  hconcat_into(s.qin_pi, s.batch.obs, s.a);
  q1_.forward(s.qin_pi);
  s.gq.resize(B, 1);
  s.gq.fill(-1.0 / B);  // maximize Q1
  // Only dQ1/da; q1's parameter grads stay zero from the critic step's
  // Adam::step.
  const int obs_dim = s.batch.obs.cols();
  const Matrix& gin =
      q1_.backward(s.gq, BackwardNeeds::input_only(obs_dim, obs_dim + act_dim_));

  s.da.resize(B, act_dim_);
  for (int i = 0; i < B; ++i) {
    for (int j = 0; j < act_dim_; ++j) {
      const double av = s.a(i, j);
      s.da(i, j) = gin(i, j) * (1.0 - av * av);  // through tanh
    }
  }
  actor_.backward(s.da, BackwardNeeds::params_only());
  actor_opt_->step();

  actor_target_.soft_update_from(actor_, config_.tau);
  q1_target_.soft_update_from(q1_, config_.tau);
  q2_target_.soft_update_from(q2_, config_.tau);
}

}  // namespace adsec
