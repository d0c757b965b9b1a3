// The determinism contract of the episode executor's lane loop: batched
// cross-episode inference returns EpisodeMetrics element-wise
// BIT-IDENTICAL to the serial evaluate_episode loop, for ANY lane count
// and ANY jobs count — for batchable (BatchPolicy) and non-batchable
// agents, with and without an attacker, with and without reference
// rollouts. EXPECT_EQ on doubles is deliberate: the contract is exact
// equality, not tolerance. This is what makes --batch-lanes a pure
// throughput knob.
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "agents/e2e_agent.hpp"
#include "agents/modular_agent.hpp"
#include "attack/scripted_attacker.hpp"
#include "runtime/parallel_eval.hpp"
#include "sensors/camera.hpp"

namespace adsec {
namespace {

void expect_identical(const EpisodeMetrics& a, const EpisodeMetrics& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.passed_npcs, b.passed_npcs);
  EXPECT_EQ(a.collision.has_value(), b.collision.has_value());
  if (a.collision.has_value() && b.collision.has_value()) {
    EXPECT_EQ(a.collision->type, b.collision->type);
    EXPECT_EQ(a.collision->step, b.collision->step);
  }
  EXPECT_EQ(a.side_collision, b.side_collision);
  EXPECT_EQ(a.nominal_reward, b.nominal_reward);
  EXPECT_EQ(a.adv_reward, b.adv_reward);
  EXPECT_EQ(a.attack_effort, b.attack_effort);
  EXPECT_EQ(a.total_injected, b.total_injected);
  EXPECT_EQ(a.time_to_collision, b.time_to_collision);
  EXPECT_EQ(a.deviation_rmse, b.deviation_rmse);
  EXPECT_EQ(a.plan_deviation_rmse, b.plan_deviation_rmse);
}

// An untrained (random-weight) policy exercises exactly the same decide()
// path as a zoo-trained one; the parity contract does not care how good
// the driving is.
AgentFactory e2e_factory() {
  return [] {
    Rng rng(42);
    const int obs_dim = StackedCameraObserver({}, 3).dim();
    GaussianPolicy policy = GaussianPolicy::make_mlp(obs_dim, {32, 32}, 2, rng);
    return std::make_unique<E2EAgent>(policy, CameraConfig{}, 3);
  };
}

AgentFactory modular_factory() {
  return [] { return std::make_unique<ModularAgent>(); };
}

void expect_lane_parity(const AgentFactory& make_agent,
                        const AttackerFactory& make_attacker,
                        bool with_reference, int episodes,
                        std::uint64_t seed_base) {
  ExperimentConfig cfg;
  auto agent = make_agent();
  std::unique_ptr<Attacker> attacker;
  if (make_attacker) attacker = make_attacker();
  const auto serial =
      run_batch(*agent, attacker.get(), cfg, episodes, seed_base, with_reference);

  for (const int lanes : {1, 2, 3, 8, 32}) {
    std::vector<EpisodeMetrics> batched(static_cast<std::size_t>(episodes));
    std::vector<EpisodeJob> jobs(static_cast<std::size_t>(episodes));
    for (int k = 0; k < episodes; ++k) {
      jobs[static_cast<std::size_t>(k)] = {
          seed_base + static_cast<std::uint64_t>(k), with_reference,
          &batched[static_cast<std::size_t>(k)]};
    }
    ExecuteOptions opt;
    opt.lanes = lanes;
    execute(make_agent, make_attacker, cfg, jobs, opt);
    for (std::size_t k = 0; k < serial.size(); ++k) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " episode=" + std::to_string(k));
      expect_identical(batched[k], serial[k]);
    }
  }
}

TEST(LaneScheduler, ParityE2ENominal) {
  expect_lane_parity(e2e_factory(), {}, /*with_reference=*/false, 8, 500);
}

TEST(LaneScheduler, ParityE2EAttacked) {
  AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(0.8); };
  expect_lane_parity(e2e_factory(), attacker, /*with_reference=*/false, 8, 500);
}

TEST(LaneScheduler, ParityE2EAttackedWithReference) {
  AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(1.0); };
  expect_lane_parity(e2e_factory(), attacker, /*with_reference=*/true, 6, 700000);
}

TEST(LaneScheduler, ParityE2ENoiseAttackerReseedsPerEpisode) {
  AttackerFactory attacker = [] { return std::make_unique<NoiseAttacker>(0.6); };
  expect_lane_parity(e2e_factory(), attacker, /*with_reference=*/false, 8, 123);
}

TEST(LaneScheduler, ParityNonBatchableAgentFallsBackPerLane) {
  // ModularAgent does not implement BatchPolicy; the executor must still
  // produce bit-identical results via the per-lane decide() fallback.
  AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(0.8); };
  expect_lane_parity(modular_factory(), attacker, /*with_reference=*/false, 8, 500);
}

TEST(LaneScheduler, EmptyJobListIsANoop) {
  ExperimentConfig cfg;
  ExecuteOptions opt;
  opt.lanes = 8;
  execute(e2e_factory(), {}, cfg, {}, opt);
}

TEST(LaneScheduler, OnJobDoneFiresOncePerJob) {
  ExperimentConfig cfg;
  std::vector<EpisodeMetrics> out(6);
  std::vector<EpisodeJob> jobs(6);
  for (int k = 0; k < 6; ++k) {
    jobs[static_cast<std::size_t>(k)] = {
        500 + static_cast<std::uint64_t>(k), false,
        &out[static_cast<std::size_t>(k)]};
  }
  std::multiset<int> done;
  ExecuteOptions opt;
  opt.lanes = 4;
  opt.on_progress = [&](int d, int total) {
    EXPECT_EQ(total, 6);
    done.insert(d);
  };
  execute(e2e_factory(), {}, cfg, jobs, opt);
  EXPECT_EQ(done.size(), 6u);
  for (int k = 1; k <= 6; ++k) EXPECT_EQ(done.count(k), 1u);
}

// The end-to-end wiring: run_batch_parallel with batch_lanes > 1 must stay
// bit-identical to serial run_batch, for every (jobs, lanes)
// combination — batching composes with thread-level parallelism.
TEST(LaneScheduler, RunBatchParallelBatchLanesParity) {
  ExperimentConfig cfg;
  const AgentFactory make_agent = e2e_factory();
  AttackerFactory attacker = [] { return std::make_unique<ScriptedAttacker>(0.8); };
  auto agent = make_agent();
  auto atk = attacker();
  const auto serial = run_batch(*agent, atk.get(), cfg, 10, 500, false);

  for (const int jobs : {1, 3}) {
    for (const int lanes : {2, 4}) {
      ParallelEvalOptions opt;
      opt.jobs = jobs;
      opt.batch_lanes = lanes;
      const auto batched =
          run_batch_parallel(make_agent, attacker, cfg, 10, 500, opt);
      ASSERT_EQ(batched.size(), serial.size());
      for (std::size_t k = 0; k < serial.size(); ++k) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs) + " lanes=" +
                     std::to_string(lanes) + " episode=" + std::to_string(k));
        expect_identical(batched[k], serial[k]);
      }
    }
  }
}

TEST(LaneScheduler, RunBatchParallelBatchLanesProgress) {
  ExperimentConfig cfg;
  std::atomic<int> ticks{0};
  std::atomic<int> last_total{0};
  ParallelEvalOptions opt;
  opt.jobs = 2;
  opt.batch_lanes = 4;
  opt.on_progress = [&](int, int total) {
    ++ticks;
    last_total = total;
  };
  run_batch_parallel(e2e_factory(), {}, cfg, 9, 300, opt);
  EXPECT_EQ(ticks.load(), 9);
  EXPECT_EQ(last_total.load(), 9);
}

}  // namespace
}  // namespace adsec
