// World: one episode of the freeway scenario. Owns the road, the ego
// vehicle, and the NPC stream; advances everything one 0.1 s tick at a time
// and detects/classifies collisions.
//
// The World is agent-agnostic: both the modular pipeline and the end-to-end
// policy (and the attacker wrapper) drive it through `step(Action)`.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/collision.hpp"
#include "sim/npc.hpp"
#include "sim/road.hpp"
#include "sim/vehicle.hpp"

namespace adsec {

struct WorldConfig {
  double dt = 0.1;      // paper: each step lasts 0.1 s
  int max_steps = 180;  // paper: episode length
};

struct CollisionEvent {
  CollisionType type{CollisionType::None};
  int npc_index{-1};  // -1 for barrier collisions
  int step{0};
};

// Per-step record used by the metrics module (trajectory deviation, attack
// effort, time-to-collision).
struct StepRecord {
  VehicleState ego_state;
  Actuation ego_actuation;
  Frenet ego_frenet;
  double applied_steer_variation{0.0};  // nu' actually fed to the plant
  double attack_delta{0.0};             // delta injected this step (0 if none)
};

class World {
 public:
  World(std::shared_ptr<const Road> road, const VehicleParams& ego_params,
        const VehicleState& ego_init, std::vector<Npc> npcs,
        const WorldConfig& config = {});

  // Advance one tick. `attack_delta` is recorded for metrics; the caller is
  // responsible for having already added it into `ego_action` (the attack
  // injection point sits between agent and plant, see attack/attack_env).
  // Returns true while the episode continues.
  bool step(const Action& ego_action, double attack_delta = 0.0);

  bool done() const;
  bool collided() const { return collision_.has_value(); }
  const std::optional<CollisionEvent>& collision() const { return collision_; }

  const Road& road() const { return *road_; }
  const std::shared_ptr<const Road>& road_ptr() const { return road_; }
  // Read-only: ego_frenet() caches project(ego position), and the camera
  // relies on it never going stale.
  const Vehicle& ego() const { return ego_; }
  const std::vector<Npc>& npcs() const { return npcs_; }
  const WorldConfig& config() const { return config_; }

  int step_count() const { return step_count_; }
  double time() const { return step_count_ * config_.dt; }

  // Exactly road().project(ego().state().position), refreshed on
  // construction and after every step.
  const Frenet& ego_frenet() const { return ego_frenet_; }

  // NPCs the ego has fully passed (ego s beyond npc s by one car length).
  int passed_npcs() const;

  // Index of the nearest NPC by Euclidean distance, or -1 if none.
  int closest_npc_index() const;

  // Nearest NPC that the ego has not yet passed (the overtaking target the
  // adversarial reward aims the ego at); -1 if all are passed.
  int target_npc_index() const;

  const std::vector<StepRecord>& history() const { return history_; }

 private:
  void detect_collisions();

  std::shared_ptr<const Road> road_;
  Vehicle ego_;
  std::vector<Npc> npcs_;
  WorldConfig config_;
  int step_count_{0};
  Frenet ego_frenet_{};
  std::optional<CollisionEvent> collision_;
  std::vector<StepRecord> history_;
};

}  // namespace adsec
