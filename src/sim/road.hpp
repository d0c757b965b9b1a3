// Road model: a multi-lane freeway described by a centerline composed of
// straight and arc segments, with a Frenet-frame projection.
//
// This substitutes CARLA Town 4 Road 23 (a gently curved freeway with no
// intersections). Lateral coordinate `d` is positive to the LEFT of the
// direction of travel; lane 0 is the right-most lane.
#pragma once

#include <vector>

#include "common/vec2.hpp"

namespace adsec {

// Pose of the centerline at arclength s.
struct RoadPose {
  Vec2 position;
  double heading{0.0};    // tangent direction, radians
  double curvature{0.0};  // 1/m, positive = turning left
};

// Frenet coordinates of a world point relative to the centerline.
struct Frenet {
  double s{0.0};  // arclength along centerline, m
  double d{0.0};  // signed lateral offset, m (positive = left)
};

struct RoadSegmentSpec {
  double length{0.0};     // arclength of the segment, m
  double curvature{0.0};  // constant curvature (0 = straight)
};

class Road {
 public:
  // Builds the road from consecutive segments starting at the origin
  // heading +x. `num_lanes` >= 1, `lane_width` > 0.
  Road(std::vector<RoadSegmentSpec> segments, int num_lanes, double lane_width);

  // Convenience: straight + gentle curve freeway used by the paper scenario.
  static Road freeway(double length = 600.0, int num_lanes = 3,
                      double lane_width = 3.5);

  // Alternating left/right sweepers — a harder geometry for trained
  // policies (generalization tests).
  static Road s_curve(double length = 600.0, int num_lanes = 3,
                      double lane_width = 3.5, double radius = 400.0);

  int num_lanes() const { return num_lanes_; }
  double lane_width() const { return lane_width_; }
  double length() const { return total_length_; }

  // Signed lateral offset of the center of lane `lane` (0 = right-most).
  double lane_center_offset(int lane) const;

  // Lane index containing lateral offset d, clamped to valid lanes.
  int lane_at_offset(double d) const;

  // Half of the drivable width; beyond this (plus vehicle half-width) the
  // vehicle is in contact with the barrier.
  double half_width() const { return 0.5 * num_lanes_ * lane_width_; }

  // Centerline pose at arclength s (clamped to [0, length]).
  RoadPose pose_at(double s) const;

  // World position of (s, d).
  Vec2 world_at(double s, double d) const;

  // Heading of the lane direction at arclength s (same as centerline).
  double heading_at(double s) const { return pose_at(s).heading; }

  // Project a world point to Frenet coordinates (nearest centerline point).
  Frenet project(const Vec2& p) const;

  // Closed-form estimate of project(p): per segment, the foot point on the
  // line (dot product) or circle (atan2 about the centre), clamped to the
  // segment; the nearest candidate wins. Beyond the road ends d is measured
  // along the end pose's normal, as in project(). Agrees with project() to
  // ~1e-13 m in d and ~1e-7 m in s (Newton's stopping tolerance), but is
  // NOT bit-identical to it: a caller that needs project()'s exact value
  // must certify the estimate against a margin and fall back to project().
  Frenet project_closed_form(const Vec2& p) const;

 private:
  struct Segment {
    double s0;         // start arclength
    double length;
    double curvature;
    Vec2 start;        // world position at s0
    double heading0;   // heading at s0
    // Closed-form projection constants (project_closed_form).
    Vec2 tangent;      // unit tangent at s0 (the whole segment if straight)
    Vec2 end;          // world position at s0 + length
    Vec2 end_tangent;  // unit tangent at s0 + length
    Vec2 center;       // arcs: circle centre
    double sweep{0.0};  // arcs: |turn angle| over the segment, rad
  };

  RoadPose pose_in_segment(const Segment& seg, double ds) const;

  std::vector<Segment> segments_;
  int num_lanes_;
  double lane_width_;
  double total_length_{0.0};

  // Coarse polyline lookup table for projection (refined analytically).
  struct LutEntry {
    Vec2 p;
    double s;
  };
  std::vector<LutEntry> lut_;
  double lut_step_{2.0};
};

}  // namespace adsec
