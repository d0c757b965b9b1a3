// Semantic camera substitute.
//
// The paper feeds agents a 3-frame stack of 84x420 semantic-segmentation
// panoramas (300 degree FOV). The learned policies consume the *semantic
// layout* — where the lanes and nearby vehicles are — so this sensor renders
// exactly that layout as an ego-frame occupancy panorama: a coarse grid
// around the ego where each cell is
//     -1  off-road,   0  free road,   +1  occupied by a vehicle.
// Three consecutive frames are stacked (sensors/frame_stack.hpp) so motion
// is observable, and the ego's normalized speed is appended as a
// measurement scalar. The default grid has 12x7 = 84 cells per frame,
// mirroring the paper's 84-pixel image height at panorama scale.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/world.hpp"

namespace adsec {

struct CameraConfig {
  int rows = 12;               // longitudinal cells
  int cols = 7;                // lateral cells
  double cell_length = 4.0;    // m per row
  double cell_width = 3.5;     // m per column (one lane)
  double rear_range = 8.0;     // grid starts this far behind the ego, m

  // Append 5 ego-state scalars to each frame: normalized lateral offset,
  // heading error vs the road tangent, speed / 20, and the applied steer /
  // thrust actuation. A full-resolution segmentation panorama encodes the
  // first two with pixel precision via the lane markings; the coarse grid
  // cannot, so they ride along as explicit measurements (the actuation pair
  // is the standard "measurement vector" CARLA agents receive).
  bool append_ego_state = true;

  // Fault injection (dependability experiments): additive Gaussian noise on
  // every grid cell, and per-cell dropout (cell reads 0 = "free road") with
  // the given probability. Both default off; the ego-state scalars are not
  // faulted (they come from other sensors).
  double cell_noise = 0.0;
  double cell_dropout = 0.0;
};

class CameraSensor {
 public:
  // Road-layer certification margin, m: a cell whose closed-form |d| lies
  // within this distance of the road edge is classified by the exact
  // Road::project instead. Far above the estimate's error (~1e-13 m), so
  // every frame equals the all-exact raster bit for bit.
  static constexpr double kRoadEdgeMargin = 1e-3;

  explicit CameraSensor(const CameraConfig& config = {},
                        std::uint64_t fault_seed = 29);

  // Single-frame observation of the world from the ego's pose. Non-const
  // only because fault injection draws from the sensor's noise stream.
  std::vector<double> observe(const World& world);

  // Allocation-free variant: render into a caller buffer of exactly
  // frame_dim() doubles (the batched-gather and decide() hot paths).
  void observe_into(const World& world, std::span<double> frame);

  int frame_dim() const;
  const CameraConfig& config() const { return config_; }

 private:
  // Grid cell for an ego-frame point; returns false if outside the grid.
  bool cell_of(const Vec2& ego_frame_point, int& row, int& col) const;

  CameraConfig config_;
  Rng fault_rng_;
};

// Fixed-depth frame stack: observation = concat of the `depth` most recent
// frames (oldest first). `reset` refills the stack with the given frame.
class FrameStack {
 public:
  FrameStack(int depth, int frame_dim);

  void reset(const std::vector<double>& frame);
  void push(const std::vector<double>& frame);
  std::vector<double> observation() const;

  // Allocation-free counterparts: push_slot() rotates the ring and hands
  // back the slot that becomes the newest frame for in-place rendering;
  // observation_into writes the stacked observation (oldest first) into a
  // caller buffer of exactly dim() doubles.
  std::span<double> push_slot();
  void observation_into(std::span<double> out) const;

  int depth() const { return depth_; }
  int frame_dim() const { return frame_dim_; }
  int dim() const { return depth_ * frame_dim_; }

 private:
  int depth_;
  int frame_dim_;
  std::vector<std::vector<double>> frames_;  // ring, frames_[head_] is oldest
  int head_{0};
};

// Camera + frame stack bundled into the paper's "3 stacked frames per step"
// observation pipeline, shared by the end-to-end agent, its training
// environment, and the camera-based attacker.
class StackedCameraObserver {
 public:
  explicit StackedCameraObserver(const CameraConfig& config = {}, int depth = 3);

  void reset(const World& world);
  // Capture one frame and return the stacked observation.
  std::vector<double> observe(const World& world);
  // Allocation-free variant: capture into the ring and write the stacked
  // observation into `out` (dim() doubles) — e.g. one row of a batch.
  void observe_into(const World& world, std::span<double> out);

  int dim() const { return stack_.dim(); }
  const CameraSensor& camera() const { return camera_; }

 private:
  CameraSensor camera_;
  FrameStack stack_;
};

}  // namespace adsec
