#include "rl/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace adsec {
namespace {

// Environment with a fixed optimal constant action; reward is highest for
// action = 0.6 regardless of state. Lets us test trainer plumbing quickly.
class ConstTargetEnv : public Env {
 public:
  std::vector<double> reset(std::uint64_t seed) override {
    (void)seed;
    t_ = 0;
    ++episodes_started;
    return {0.0};
  }
  EnvStep step(std::span<const double> a) override {
    EnvStep s;
    s.reward = -(a[0] - 0.6) * (a[0] - 0.6);
    s.done = ++t_ >= 5;
    s.obs = {0.0};
    ++steps_taken;
    return s;
  }
  int obs_dim() const override { return 1; }
  int act_dim() const override { return 1; }

  int episodes_started{0};
  int steps_taken{0};

 private:
  int t_{0};
};

TEST(Trainer, RunsRequestedSteps) {
  ConstTargetEnv env;
  SacConfig cfg;
  cfg.batch_size = 16;
  Rng rng(1);
  Sac sac(1, 1, cfg, rng);
  TrainConfig tc;
  tc.total_steps = 200;
  tc.start_steps = 50;
  tc.update_after = 50;
  tc.eval_every = 0;
  tc.seed = 1;
  const TrainResult res = train_sac(sac, env, tc);
  EXPECT_EQ(res.steps_done, 200);
  EXPECT_FALSE(res.stopped_on_plateau);
  EXPECT_GE(env.steps_taken, 200);
  EXPECT_FALSE(res.best_actor.has_value());  // eval disabled
  // 5-step episodes -> at least 40 episodes recorded.
  EXPECT_GE(static_cast<int>(res.episode_returns.size()), 35);
  // One UpdateStats per update burst: steps 51..200 with update_every=1.
  ASSERT_EQ(static_cast<int>(res.update_history.size()), 150);
  int prev_step = 0;
  for (const UpdateStats& u : res.update_history) {
    EXPECT_GT(u.step, prev_step);  // strictly increasing burst steps
    prev_step = u.step;
    EXPECT_TRUE(std::isfinite(u.critic_loss));
    EXPECT_TRUE(std::isfinite(u.actor_loss));
    EXPECT_GT(u.alpha, 0.0);
    EXPECT_TRUE(std::isfinite(u.critic_grad_norm));
    EXPECT_GE(u.critic_grad_norm, 0.0);
    EXPECT_TRUE(std::isfinite(u.actor_grad_norm));
    EXPECT_GE(u.actor_grad_norm, 0.0);
  }
  // The critic actually received gradient somewhere in the run.
  bool any_grad = false;
  for (const UpdateStats& u : res.update_history) any_grad |= u.critic_grad_norm > 0.0;
  EXPECT_TRUE(any_grad);
}

TEST(Trainer, EvalRecordsAndSnapshots) {
  ConstTargetEnv env;
  SacConfig cfg;
  cfg.batch_size = 8;
  Rng rng(2);
  Sac sac(1, 1, cfg, rng);
  TrainConfig tc;
  tc.total_steps = 300;
  tc.start_steps = 30;
  tc.update_after = 30;
  tc.eval_every = 100;
  tc.eval_episodes = 2;
  tc.plateau_eps = 1e9;      // never counts as improvement...
  tc.plateau_patience = 99;  // ...but never stops either
  const TrainResult res = train_sac(sac, env, tc);
  EXPECT_EQ(static_cast<int>(res.eval_returns.size()), 3);
  ASSERT_TRUE(res.best_actor.has_value());
  EXPECT_GE(res.best_eval_return, *std::min_element(res.eval_returns.begin(),
                                                    res.eval_returns.end()));
}

TEST(Trainer, PlateauStopsEarly) {
  ConstTargetEnv env;
  SacConfig cfg;
  cfg.batch_size = 8;
  Rng rng(3);
  Sac sac(1, 1, cfg, rng);
  TrainConfig tc;
  tc.total_steps = 10000;
  tc.start_steps = 20;
  tc.update_after = 20;
  tc.eval_every = 50;
  tc.eval_episodes = 1;
  tc.plateau_eps = 1e9;  // improvement threshold unreachably high
  tc.plateau_patience = 2;
  const TrainResult res = train_sac(sac, env, tc);
  EXPECT_TRUE(res.stopped_on_plateau);
  EXPECT_LT(res.steps_done, 10000);
}

TEST(Trainer, EvaluatePolicyAveragesEpisodes) {
  ConstTargetEnv env;
  SacConfig cfg;
  Rng rng(4);
  Sac sac(1, 1, cfg, rng);
  const double ret = evaluate_policy(sac, env, 3, 100);
  // 5 steps per episode, reward in [-2.56, 0]: the average must lie there.
  EXPECT_LE(ret, 0.0);
  EXPECT_GE(ret, -2.56 * 5);
}

}  // namespace
}  // namespace adsec
