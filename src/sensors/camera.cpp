#include "sensors/camera.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/angle.hpp"

namespace adsec {

CameraSensor::CameraSensor(const CameraConfig& config, std::uint64_t fault_seed)
    : config_(config), fault_rng_(fault_seed) {
  if (config.rows < 1 || config.cols < 1) {
    throw std::invalid_argument("CameraSensor: grid must be at least 1x1");
  }
  if (config.cell_dropout < 0.0 || config.cell_dropout > 1.0) {
    throw std::invalid_argument("CameraSensor: cell_dropout must be in [0,1]");
  }
}

int CameraSensor::frame_dim() const {
  return config_.rows * config_.cols + (config_.append_ego_state ? 5 : 0);
}

bool CameraSensor::cell_of(const Vec2& p, int& row, int& col) const {
  // Ego frame: +x forward, +y left. Row 0 is the rearmost band.
  const double lon = p.x + config_.rear_range;
  const double lat = p.y + 0.5 * config_.cols * config_.cell_width;
  if (lon < 0.0 || lat < 0.0) return false;
  row = static_cast<int>(lon / config_.cell_length);
  col = static_cast<int>(lat / config_.cell_width);
  return row >= 0 && row < config_.rows && col >= 0 && col < config_.cols;
}

std::vector<double> CameraSensor::observe(const World& world) {
  std::vector<double> frame(static_cast<std::size_t>(frame_dim()), 0.0);
  observe_into(world, frame);
  return frame;
}

void CameraSensor::observe_into(const World& world, std::span<double> frame) {
  if (static_cast<int>(frame.size()) != frame_dim()) {
    throw std::invalid_argument("CameraSensor::observe_into: frame dim mismatch");
  }
  std::fill(frame.begin(), frame.end(), 0.0);
  const Vec2 ego_pos = world.ego().state().position;
  const double ego_heading = world.ego().state().heading;
  const Road& road = world.road();

  // Road / off-road layer: classify each cell center by |d| > half_width.
  // The closed-form estimate decides every cell farther than the margin
  // from the road edge; only cells inside that band pay for the exact
  // projection, so each cell gets exactly the class road.project() gives.
  const double half_width = road.half_width();
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      const double lon = (r + 0.5) * config_.cell_length - config_.rear_range;
      const double lat = (c + 0.5) * config_.cell_width -
                         0.5 * config_.cols * config_.cell_width;
      const Vec2 world_pt = ego_pos + Vec2{lon, lat}.rotated(ego_heading);
      const double d = std::abs(road.project_closed_form(world_pt).d);
      const bool off_road = d > half_width + kRoadEdgeMargin ||
                            (d >= half_width - kRoadEdgeMargin &&
                             std::abs(road.project(world_pt).d) > half_width);
      if (off_road) frame[static_cast<std::size_t>(r * config_.cols + c)] = -1.0;
    }
  }

  // Vehicle layer: stamp each NPC's footprint (corners + center).
  for (const auto& npc : world.npcs()) {
    Vec2 pts[5];
    npc.vehicle().corners(pts);
    pts[4] = npc.vehicle().state().position;
    for (const Vec2& wp : pts) {
      const Vec2 rel = (wp - ego_pos).rotated(-ego_heading);
      int r, c;
      if (cell_of(rel, r, c)) {
        frame[static_cast<std::size_t>(r * config_.cols + c)] = 1.0;
      }
    }
  }

  // Fault injection on the grid cells (not the ego-state scalars).
  if (config_.cell_noise > 0.0 || config_.cell_dropout > 0.0) {
    const int cells = config_.rows * config_.cols;
    for (int i = 0; i < cells; ++i) {
      auto& v = frame[static_cast<std::size_t>(i)];
      if (config_.cell_dropout > 0.0 && fault_rng_.bernoulli(config_.cell_dropout)) {
        v = 0.0;
        continue;
      }
      if (config_.cell_noise > 0.0) v += fault_rng_.normal(0.0, config_.cell_noise);
    }
  }

  if (config_.append_ego_state) {
    const Frenet& f = world.ego_frenet();
    const double road_heading = road.heading_at(f.s);
    const std::size_t base = static_cast<std::size_t>(config_.rows * config_.cols);
    frame[base + 0] = f.d / road.half_width();
    frame[base + 1] = wrap_angle(ego_heading - road_heading);
    frame[base + 2] = world.ego().state().speed / 20.0;
    frame[base + 3] = world.ego().actuation().steer;
    frame[base + 4] = world.ego().actuation().thrust;
  }
}

FrameStack::FrameStack(int depth, int frame_dim) : depth_(depth), frame_dim_(frame_dim) {
  if (depth < 1 || frame_dim < 1) {
    throw std::invalid_argument("FrameStack: depth and frame_dim must be >= 1");
  }
  frames_.assign(static_cast<std::size_t>(depth),
                 std::vector<double>(static_cast<std::size_t>(frame_dim), 0.0));
}

void FrameStack::reset(const std::vector<double>& frame) {
  if (static_cast<int>(frame.size()) != frame_dim_) {
    throw std::invalid_argument("FrameStack::reset: frame dim mismatch");
  }
  for (auto& f : frames_) f = frame;
  head_ = 0;
}

void FrameStack::push(const std::vector<double>& frame) {
  if (static_cast<int>(frame.size()) != frame_dim_) {
    throw std::invalid_argument("FrameStack::push: frame dim mismatch");
  }
  frames_[static_cast<std::size_t>(head_)] = frame;
  head_ = (head_ + 1) % depth_;
}

std::vector<double> FrameStack::observation() const {
  std::vector<double> obs;
  obs.reserve(static_cast<std::size_t>(dim()));
  for (int i = 0; i < depth_; ++i) {
    const auto& f = frames_[static_cast<std::size_t>((head_ + i) % depth_)];
    obs.insert(obs.end(), f.begin(), f.end());
  }
  return obs;
}

std::span<double> FrameStack::push_slot() {
  auto& slot = frames_[static_cast<std::size_t>(head_)];
  head_ = (head_ + 1) % depth_;
  return {slot.data(), slot.size()};
}

void FrameStack::observation_into(std::span<double> out) const {
  if (static_cast<int>(out.size()) != dim()) {
    throw std::invalid_argument("FrameStack::observation_into: dim mismatch");
  }
  double* dst = out.data();
  for (int i = 0; i < depth_; ++i) {
    const auto& f = frames_[static_cast<std::size_t>((head_ + i) % depth_)];
    std::copy(f.begin(), f.end(), dst);
    dst += f.size();
  }
}

StackedCameraObserver::StackedCameraObserver(const CameraConfig& config, int depth)
    : camera_(config), stack_(depth, camera_.frame_dim()) {}

void StackedCameraObserver::reset(const World& world) {
  stack_.reset(camera_.observe(world));
}

std::vector<double> StackedCameraObserver::observe(const World& world) {
  std::vector<double> out(static_cast<std::size_t>(dim()));
  observe_into(world, out);
  return out;
}

void StackedCameraObserver::observe_into(const World& world, std::span<double> out) {
  camera_.observe_into(world, stack_.push_slot());
  stack_.observation_into(out);
}

}  // namespace adsec
