// Field-by-field, bit-exact comparison of two episodes' metrics, shared by
// the store round-trip and cell-list tests.
#pragma once

#include <gtest/gtest.h>

#include "core/metrics.hpp"

namespace adsec::orch {

inline void expect_episode_eq(const EpisodeMetrics& a, const EpisodeMetrics& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.passed_npcs, b.passed_npcs);
  ASSERT_EQ(a.collision.has_value(), b.collision.has_value());
  if (a.collision.has_value()) {
    EXPECT_EQ(a.collision->type, b.collision->type);
    EXPECT_EQ(a.collision->npc_index, b.collision->npc_index);
    EXPECT_EQ(a.collision->step, b.collision->step);
  }
  EXPECT_EQ(a.side_collision, b.side_collision);
  EXPECT_EQ(a.nominal_reward, b.nominal_reward);  // bit-exact, not "close"
  EXPECT_EQ(a.adv_reward, b.adv_reward);
  EXPECT_EQ(a.attack_effort, b.attack_effort);
  EXPECT_EQ(a.total_injected, b.total_injected);
  EXPECT_EQ(a.time_to_collision, b.time_to_collision);
  EXPECT_EQ(a.deviation_rmse, b.deviation_rmse);
  EXPECT_EQ(a.plan_deviation_rmse, b.plan_deviation_rmse);
}

}  // namespace adsec::orch
