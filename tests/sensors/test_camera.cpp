#include "sensors/camera.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "common/angle.hpp"
#include "sim/scenario.hpp"

namespace adsec {

namespace reference {

// The all-exact raster: every cell centre and the ego go through the
// LUT+Newton Road::project. CameraSensor::observe_into must reproduce it
// bit for bit (fault injection off).
std::vector<double> camera_frame(const CameraConfig& config, const World& world) {
  const int cells = config.rows * config.cols;
  std::vector<double> frame(static_cast<std::size_t>(cells + (config.append_ego_state ? 5 : 0)),
                            0.0);
  const Vec2 ego_pos = world.ego().state().position;
  const double ego_heading = world.ego().state().heading;
  const Road& road = world.road();
  const double grid_half_width = 0.5 * config.cols * config.cell_width;
  for (int r = 0; r < config.rows; ++r) {
    for (int c = 0; c < config.cols; ++c) {
      const double lon = (r + 0.5) * config.cell_length - config.rear_range;
      const double lat = (c + 0.5) * config.cell_width - grid_half_width;
      const Vec2 world_pt = ego_pos + Vec2{lon, lat}.rotated(ego_heading);
      if (std::abs(road.project(world_pt).d) > road.half_width()) {
        frame[static_cast<std::size_t>(r * config.cols + c)] = -1.0;
      }
    }
  }
  for (const auto& npc : world.npcs()) {
    Vec2 pts[5];
    npc.vehicle().corners(pts);
    pts[4] = npc.vehicle().state().position;
    for (const Vec2& wp : pts) {
      const Vec2 rel = (wp - ego_pos).rotated(-ego_heading);
      const double lon = rel.x + config.rear_range;
      const double lat = rel.y + grid_half_width;
      if (lon < 0.0 || lat < 0.0) continue;
      const int r = static_cast<int>(lon / config.cell_length);
      const int c = static_cast<int>(lat / config.cell_width);
      if (r < config.rows && c < config.cols) {
        frame[static_cast<std::size_t>(r * config.cols + c)] = 1.0;
      }
    }
  }
  if (config.append_ego_state) {
    const Frenet f = road.project(ego_pos);
    const std::size_t base = static_cast<std::size_t>(cells);
    frame[base + 0] = f.d / road.half_width();
    frame[base + 1] = wrap_angle(ego_heading - road.heading_at(f.s));
    frame[base + 2] = world.ego().state().speed / 20.0;
    frame[base + 3] = world.ego().actuation().steer;
    frame[base + 4] = world.ego().actuation().thrust;
  }
  return frame;
}

}  // namespace reference

namespace {

World nominal_world(std::uint64_t seed = 1, int npcs = 6) {
  ScenarioConfig cfg;
  cfg.num_npcs = npcs;
  Rng rng(seed);
  return make_scenario(cfg, rng);
}

TEST(Camera, FrameDimIncludesEgoState) {
  CameraConfig cfg;
  CameraSensor cam(cfg);
  EXPECT_EQ(cam.frame_dim(), 12 * 7 + 5);
  cfg.append_ego_state = false;
  EXPECT_EQ(CameraSensor(cfg).frame_dim(), 84);
}

TEST(Camera, ValidatesGrid) {
  CameraConfig cfg;
  cfg.rows = 0;
  EXPECT_THROW(CameraSensor{cfg}, std::invalid_argument);
}

TEST(Camera, DetectsNpcAhead) {
  World w = nominal_world();
  CameraSensor cam;
  const auto frame = cam.observe(w);
  // NPC 0 spawns ~30 m ahead in the ego's lane: some cell must read +1.
  bool occupied = false;
  for (int i = 0; i < 84; ++i) occupied |= frame[static_cast<std::size_t>(i)] == 1.0;
  EXPECT_TRUE(occupied);
}

TEST(Camera, EmptyRoadHasNoVehicleCells) {
  World w = nominal_world(1, 0);
  CameraSensor cam;
  const auto frame = cam.observe(w);
  for (int i = 0; i < 84; ++i) EXPECT_NE(frame[static_cast<std::size_t>(i)], 1.0);
}

TEST(Camera, MarksOffRoadCells) {
  World w = nominal_world(1, 0);
  CameraSensor cam;
  const auto frame = cam.observe(w);
  // Grid is 24.5 m wide vs a 10.5 m road: the outer columns are off-road.
  int offroad = 0;
  for (int i = 0; i < 84; ++i) offroad += frame[static_cast<std::size_t>(i)] == -1.0;
  EXPECT_GT(offroad, 20);
}

TEST(Camera, EgoStateScalarsPopulated) {
  World w = nominal_world();
  CameraSensor cam;
  const auto frame = cam.observe(w);
  const std::size_t base = 84;
  EXPECT_NEAR(frame[base + 0], 0.0, 0.05);  // mid-lane => tiny offset
  EXPECT_NEAR(frame[base + 2], w.ego().state().speed / 20.0, 1e-9);
}

TEST(Camera, NpcPositionReflectedInCorrectColumn) {
  // NPC in the left lane must occupy a left-of-center column.
  ScenarioConfig cfg;
  cfg.num_npcs = 1;
  cfg.npc_lanes = {2};
  cfg.first_npc_gap = 12.0;
  cfg.spawn_jitter = 0.0;
  Rng rng(1);
  World w = make_scenario(cfg, rng);
  CameraSensor cam;
  const auto frame = cam.observe(w);
  bool left_occupied = false, right_occupied = false;
  for (int r = 0; r < 12; ++r) {
    for (int c = 0; c < 7; ++c) {
      if (frame[static_cast<std::size_t>(r * 7 + c)] == 1.0) {
        if (c >= 4) left_occupied = true;  // +y (left) columns have higher c
        if (c <= 2) right_occupied = true;
      }
    }
  }
  EXPECT_TRUE(left_occupied);
  EXPECT_FALSE(right_occupied);
}

TEST(Camera, CellNoiseFaultPerturbsGridOnly) {
  World w = nominal_world();
  CameraConfig clean_cfg;
  CameraConfig noisy_cfg;
  noisy_cfg.cell_noise = 0.2;
  CameraSensor clean(clean_cfg), noisy(noisy_cfg);
  const auto a = clean.observe(w);
  const auto b = noisy.observe(w);
  bool grid_changed = false;
  for (int i = 0; i < 84; ++i) {
    grid_changed |= a[static_cast<std::size_t>(i)] != b[static_cast<std::size_t>(i)];
  }
  EXPECT_TRUE(grid_changed);
  // Ego-state scalars come from other sensors and are not faulted.
  for (std::size_t i = 84; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Camera, FullDropoutBlanksTheGrid) {
  World w = nominal_world();
  CameraConfig cfg;
  cfg.cell_dropout = 1.0;
  CameraSensor cam(cfg);
  const auto frame = cam.observe(w);
  for (int i = 0; i < 84; ++i) EXPECT_DOUBLE_EQ(frame[static_cast<std::size_t>(i)], 0.0);
}

TEST(Camera, DropoutValidated) {
  CameraConfig cfg;
  cfg.cell_dropout = 1.5;
  EXPECT_THROW(CameraSensor{cfg}, std::invalid_argument);
}

TEST(Camera, FaultsAreDeterministicPerSeed) {
  World w = nominal_world();
  CameraConfig cfg;
  cfg.cell_noise = 0.3;
  CameraSensor a(cfg, 123), b(cfg, 123);
  const auto fa = a.observe(w);
  const auto fb = b.observe(w);
  for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_DOUBLE_EQ(fa[i], fb[i]);
}

TEST(FrameStack, ValidatesArgs) {
  EXPECT_THROW(FrameStack(0, 4), std::invalid_argument);
  EXPECT_THROW(FrameStack(3, 0), std::invalid_argument);
  FrameStack fs(3, 4);
  EXPECT_THROW(fs.push({1.0}), std::invalid_argument);
  EXPECT_THROW(fs.reset({1.0}), std::invalid_argument);
}

TEST(FrameStack, ResetFillsAllSlots) {
  FrameStack fs(3, 2);
  fs.reset({1.0, 2.0});
  const auto obs = fs.observation();
  ASSERT_EQ(obs.size(), 6u);
  for (std::size_t i = 0; i < 6; i += 2) {
    EXPECT_DOUBLE_EQ(obs[i], 1.0);
    EXPECT_DOUBLE_EQ(obs[i + 1], 2.0);
  }
}

TEST(FrameStack, OrdersOldestFirst) {
  FrameStack fs(3, 1);
  fs.reset({0.0});
  fs.push({1.0});
  fs.push({2.0});
  const auto obs = fs.observation();
  EXPECT_DOUBLE_EQ(obs[0], 0.0);
  EXPECT_DOUBLE_EQ(obs[1], 1.0);
  EXPECT_DOUBLE_EQ(obs[2], 2.0);
  fs.push({3.0});
  const auto obs2 = fs.observation();
  EXPECT_DOUBLE_EQ(obs2[0], 1.0);
  EXPECT_DOUBLE_EQ(obs2[2], 3.0);
}

TEST(StackedCameraObserver, DimAndMotionVisibility) {
  World w = nominal_world();
  StackedCameraObserver obs({}, 3);
  EXPECT_EQ(obs.dim(), 3 * 89);
  obs.reset(w);
  const auto o1 = obs.observe(w);
  w.step({0.0, 1.0});
  w.step({0.0, 1.0});
  const auto o2 = obs.observe(w);
  // After motion the stacked observation must change.
  bool changed = false;
  for (std::size_t i = 0; i < o1.size(); ++i) changed |= o1[i] != o2[i];
  EXPECT_TRUE(changed);
}

// World position of the centre of grid cell (row, col) for an ego at
// `ego`, as the camera computes it.
Vec2 cell_center(const CameraConfig& cfg, const VehicleState& ego, int row, int col) {
  const double lon = (row + 0.5) * cfg.cell_length - cfg.rear_range;
  const double lat = (col + 0.5) * cfg.cell_width - 0.5 * cfg.cols * cfg.cell_width;
  return ego.position + Vec2{lon, lat}.rotated(ego.heading);
}

// Cells whose closed-form |d| lies inside the certification band, i.e. the
// cells the camera hands to the exact projection.
int band_cells(const CameraConfig& cfg, const World& w) {
  const Road& road = w.road();
  int n = 0;
  for (int r = 0; r < cfg.rows; ++r) {
    for (int c = 0; c < cfg.cols; ++c) {
      const Vec2 p = cell_center(cfg, w.ego().state(), r, c);
      const double d = std::abs(road.project_closed_form(p).d);
      n += std::abs(d - road.half_width()) <= CameraSensor::kRoadEdgeMargin;
    }
  }
  return n;
}

::testing::AssertionResult same_bits(const std::vector<double>& got,
                                     const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs " << want.size();
  }
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  std::size_t i = 0;
  while (std::memcmp(&got[i], &want[i], sizeof(double)) == 0) ++i;
  return ::testing::AssertionFailure()
         << "first difference at value " << i << ": " << got[i] << " vs " << want[i];
}

TEST(CertifiedRaster, FramesMatchExactRasterOnEveryPreset) {
  const CameraConfig cfg;
  int frames = 0, fallbacks = 0;
  for (const std::string& preset : scenario_preset_names()) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      Rng rng(seed);
      World w = make_scenario(scenario_preset(preset), rng);
      CameraSensor cam(cfg);
      // Odd seeds steer at full range (quick barrier runs past the edge),
      // even seeds gently (long episodes through the curves and traffic).
      Rng actions(seed * 7919 + 3);
      const double steer = seed % 2 == 1 ? 1.0 : 0.05;
      while (true) {
        ASSERT_TRUE(same_bits(cam.observe(w), reference::camera_frame(cfg, w)))
            << preset << " seed " << seed << " step " << w.step_count();
        ++frames;
        fallbacks += band_cells(cfg, w);
        if (w.done()) break;
        w.step({steer * actions.uniform(-1.0, 1.0), actions.uniform(-0.5, 1.0)});
      }
    }
  }
  RecordProperty("frames", frames);
  RecordProperty("fallback_cells", fallbacks);
  EXPECT_GT(frames, 6 * 100);
  EXPECT_GT(fallbacks, 0) << "the sweep never reached the exact fallback";
}

// Ego placed on `road` at arclength s so that the centre of cell (row, col)
// sits on the road's right edge to ~1e-9 m.
World edge_world(std::shared_ptr<const Road> road, const CameraConfig& cfg, double s,
                 int row, int col) {
  VehicleState ego;
  ego.heading = road->heading_at(s);
  ego.speed = 10.0;
  double d = 0.0;
  for (int it = 0; it < 6; ++it) {
    ego.position = road->world_at(s, d);
    d -= road->half_width() + road->project(cell_center(cfg, ego, row, col)).d;
  }
  ego.position = road->world_at(s, d);
  return World(road, default_vehicle_params(), ego, {});
}

TEST(CertifiedRaster, NearEdgeCellTakesExactFallbackAndMatches) {
  const CameraConfig cfg;
  const std::shared_ptr<const Road> roads[] = {
      std::make_shared<const Road>(Road::s_curve()),
      std::make_shared<const Road>(Road({{600.0, 0.0}}, 3, 3.5))};
  for (const auto& road : roads) {
    for (const double s : {60.0, 200.0, 350.0, 560.0}) {
      const World w = edge_world(road, cfg, s, 9, 1);
      const double d = road->project_closed_form(cell_center(cfg, w.ego().state(), 9, 1)).d;
      ASSERT_LE(std::abs(std::abs(d) - road->half_width()), CameraSensor::kRoadEdgeMargin)
          << "s=" << s;
      CameraSensor cam(cfg);
      EXPECT_TRUE(same_bits(cam.observe(w), reference::camera_frame(cfg, w))) << "s=" << s;
    }
  }
}

}  // namespace
}  // namespace adsec
