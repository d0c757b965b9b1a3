#include "rl/sac.hpp"

#include <gtest/gtest.h>

#include "rl/trainer.hpp"

namespace adsec {
namespace {

// Toy continuous-control task: the agent observes x in [-1, 1] and is
// rewarded for matching its action to x. Ten-step episodes with x drifting.
// SAC must drive the mean squared tracking error far below random play.
class TrackEnv : public Env {
 public:
  std::vector<double> reset(std::uint64_t seed) override {
    rng_ = Rng(seed);
    x_ = rng_.uniform(-1.0, 1.0);
    t_ = 0;
    return {x_};
  }

  EnvStep step(std::span<const double> action) override {
    const double a = action[0];
    EnvStep s;
    s.reward = -(a - x_) * (a - x_);
    x_ += rng_.uniform(-0.2, 0.2);
    if (x_ > 1.0) x_ = 1.0;
    if (x_ < -1.0) x_ = -1.0;
    ++t_;
    s.done = t_ >= 10;
    s.obs = {x_};
    return s;
  }

  int obs_dim() const override { return 1; }
  int act_dim() const override { return 1; }

 private:
  Rng rng_{0};
  double x_{0.0};
  int t_{0};
};

TEST(Sac, LearnsToTrackTarget) {
  TrackEnv env;
  SacConfig cfg;
  cfg.actor_hidden = {32, 32};
  cfg.critic_hidden = {32, 32};
  cfg.batch_size = 32;

  Rng rng(1);
  Sac sac(1, 1, cfg, rng);

  TrainConfig tc;
  tc.total_steps = 4000;
  tc.start_steps = 300;
  tc.update_after = 300;
  tc.eval_every = 0;
  tc.replay_capacity = 5000;
  tc.seed = 3;
  (void)train_sac(sac, env, tc);

  const double trained = evaluate_policy(sac, env, 20, 777);
  // Random play on 10-step episodes scores around -6; a trained policy
  // should be close to 0.
  EXPECT_GT(trained, -1.0);
}

TEST(Sac, UpdateIsNoOpUntilBatchAvailable) {
  SacConfig cfg;
  cfg.batch_size = 16;
  Rng rng(2);
  Sac sac(1, 1, cfg, rng);
  ReplayBuffer buf(100, 1, 1);
  const double obs[1] = {0.0}, act[1] = {0.0};
  for (int i = 0; i < 10; ++i) buf.add(obs, act, 0.0, obs, false);
  sac.update(buf, rng);
  EXPECT_EQ(sac.updates_done(), 0);
  for (int i = 0; i < 10; ++i) buf.add(obs, act, 0.0, obs, false);
  sac.update(buf, rng);
  EXPECT_EQ(sac.updates_done(), 1);
}

TEST(Sac, ActorDelayPostponesActorTraining) {
  SacConfig cfg;
  cfg.batch_size = 8;
  cfg.actor_delay_updates = 5;
  Rng rng(4);
  Sac sac(2, 1, cfg, rng);

  // Snapshot the actor, feed updates, and check it only changes after the
  // delay has elapsed.
  GaussianPolicy before = sac.actor();
  ReplayBuffer buf(100, 2, 1);
  Rng data_rng(9);
  for (int i = 0; i < 50; ++i) {
    const double obs[2] = {data_rng.uniform(), data_rng.uniform()};
    const double act[1] = {data_rng.uniform(-1.0, 1.0)};
    buf.add(obs, act, data_rng.uniform(), obs, false);
  }
  Matrix probe = Matrix::randn(1, 2, data_rng, 1.0);
  for (int u = 0; u < 5; ++u) sac.update(buf, rng);
  EXPECT_DOUBLE_EQ(sac.actor().mean_action(probe)(0, 0),
                   before.mean_action(probe)(0, 0));
  for (int u = 0; u < 3; ++u) sac.update(buf, rng);
  EXPECT_NE(sac.actor().mean_action(probe)(0, 0), before.mean_action(probe)(0, 0));
}

TEST(Sac, AlphaStaysFixedWhenAutoTuningDisabled) {
  SacConfig cfg;
  cfg.batch_size = 8;
  cfg.auto_alpha = false;
  cfg.init_alpha = 0.05;
  Rng rng(4);
  Sac sac(1, 1, cfg, rng);
  ReplayBuffer buf(50, 1, 1);
  Rng data_rng(9);
  for (int i = 0; i < 20; ++i) {
    const double obs[1] = {data_rng.uniform()};
    const double act[1] = {data_rng.uniform(-1.0, 1.0)};
    buf.add(obs, act, data_rng.uniform(), obs, false);
  }
  for (int u = 0; u < 10; ++u) sac.update(buf, rng);
  EXPECT_DOUBLE_EQ(sac.alpha(), 0.05);
}

TEST(Sac, DeterministicActIsRepeatable) {
  SacConfig cfg;
  Rng rng(6);
  Sac sac(3, 2, cfg, rng);
  const std::vector<double> obs = {0.1, -0.4, 0.7};
  Rng r1(1), r2(2);
  const auto a1 = sac.act(obs, r1, true);
  const auto a2 = sac.act(obs, r2, true);
  ASSERT_EQ(a1.size(), 2u);
  EXPECT_DOUBLE_EQ(a1[0], a2[0]);
  EXPECT_DOUBLE_EQ(a1[1], a2[1]);
}

}  // namespace
}  // namespace adsec
