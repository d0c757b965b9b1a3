#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/scenario.hpp"

namespace adsec {
namespace {

World nominal_world(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  Rng rng(seed);
  return make_scenario(cfg, rng);
}

TEST(World, InitialState) {
  World w = nominal_world();
  EXPECT_EQ(w.step_count(), 0);
  EXPECT_FALSE(w.done());
  EXPECT_FALSE(w.collided());
  EXPECT_EQ(static_cast<int>(w.npcs().size()), 6);
  EXPECT_NEAR(w.ego_frenet().s, 10.0, 0.5);
  EXPECT_DOUBLE_EQ(w.time(), 0.0);
}

TEST(World, StepAdvancesEverything) {
  World w = nominal_world();
  const double npc_s0 = w.npcs()[0].frenet().s;
  const double ego_s0 = w.ego_frenet().s;
  w.step({0.0, 0.5});
  EXPECT_EQ(w.step_count(), 1);
  EXPECT_GT(w.ego_frenet().s, ego_s0);
  EXPECT_GT(w.npcs()[0].frenet().s, npc_s0);
  EXPECT_EQ(w.history().size(), 1u);
}

TEST(World, EndsAtMaxSteps) {
  ScenarioConfig cfg;
  cfg.world.max_steps = 12;
  cfg.ego_start_speed = 0.0;
  Rng rng(2);
  World w = make_scenario(cfg, rng);
  int steps = 0;
  while (w.step({0.0, 0.0})) ++steps;
  EXPECT_EQ(w.step_count(), 12);
  EXPECT_TRUE(w.done());
  EXPECT_FALSE(w.collided());
}

TEST(World, StepOnFinishedEpisodeIsNoOp) {
  ScenarioConfig cfg;
  cfg.world.max_steps = 3;
  Rng rng(2);
  World w = make_scenario(cfg, rng);
  while (w.step({0.0, 0.0})) {
  }
  const int n = w.step_count();
  EXPECT_FALSE(w.step({0.0, 0.0}));
  EXPECT_EQ(w.step_count(), n);
}

TEST(World, BarrierCollisionDetected) {
  World w = nominal_world();
  // Hard left until the barrier.
  while (w.step({1.0, 0.2})) {
  }
  ASSERT_TRUE(w.collided());
  EXPECT_EQ(w.collision()->type, CollisionType::Barrier);
  EXPECT_EQ(w.collision()->npc_index, -1);
}

TEST(World, RearEndCollisionDetected) {
  // Full throttle straight down the middle lane: NPC 0 sits in that lane.
  World w = nominal_world();
  while (w.step({0.0, 1.0})) {
  }
  ASSERT_TRUE(w.collided());
  EXPECT_EQ(w.collision()->type, CollisionType::RearEnd);
  EXPECT_EQ(w.collision()->npc_index, 0);
}

TEST(World, PassedNpcsCountsMonotonically) {
  World w = nominal_world();
  EXPECT_EQ(w.passed_npcs(), 0);
}

TEST(World, ClosestAndTargetNpc) {
  World w = nominal_world();
  // At spawn, NPC 0 (30 m ahead) is both closest and the overtaking target.
  EXPECT_EQ(w.closest_npc_index(), 0);
  EXPECT_EQ(w.target_npc_index(), 0);
}

TEST(World, HistoryRecordsAttackDelta) {
  World w = nominal_world();
  w.step({0.3, 0.0}, 0.25);
  ASSERT_EQ(w.history().size(), 1u);
  EXPECT_DOUBLE_EQ(w.history()[0].attack_delta, 0.25);
  EXPECT_DOUBLE_EQ(w.history()[0].applied_steer_variation, 0.3);
}

TEST(World, ReactiveNpcFollowsSlowerLeader) {
  // Two NPCs in the same lane: a slow leader and a reactive follower that
  // spawns close behind. The follower must settle near the leader's speed
  // instead of rear-ending it.
  auto road = std::make_shared<const Road>(Road({{500.0, 0.0}}, 3, 3.5));
  NpcParams slow;
  slow.ref_speed = 3.0;
  NpcParams fast;
  fast.ref_speed = 8.0;
  fast.reactive = true;
  std::vector<Npc> npcs;
  npcs.emplace_back(VehicleParams{}, slow, road, 1, 60.0);
  npcs.emplace_back(VehicleParams{}, fast, road, 1, 45.0);
  VehicleState ego_init;
  ego_init.position = road->world_at(5.0, -3.5);
  ego_init.speed = 0.0;
  WorldConfig wc;
  wc.max_steps = 150;
  World w(road, VehicleParams{}, ego_init, std::move(npcs), wc);
  while (w.step({0.0, 0.0})) {
  }
  EXPECT_FALSE(w.collided());
  EXPECT_NEAR(w.npcs()[1].vehicle().state().speed, 3.0, 1.0);
}

TEST(World, TimeTracksDt) {
  World w = nominal_world();
  w.step({0, 0});
  w.step({0, 0});
  EXPECT_NEAR(w.time(), 0.2, 1e-12);
}

// The camera reads the ego's Frenet state from this cache instead of
// projecting again, so it must be exactly project(ego position), bit for
// bit, after construction and after every step.
TEST(World, EgoFrenetIsExactProjectionOfEgo) {
  World w = nominal_world(3);
  const auto expect_exact = [&w] {
    const Frenet f = w.road().project(w.ego().state().position);
    EXPECT_EQ(w.ego_frenet().s, f.s) << "step " << w.step_count();
    EXPECT_EQ(w.ego_frenet().d, f.d) << "step " << w.step_count();
  };
  expect_exact();
  while (w.step({0.02, 0.4})) expect_exact();
  expect_exact();
}

}  // namespace
}  // namespace adsec
