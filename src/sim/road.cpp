#include "sim/road.hpp"

#include <cmath>
#include <stdexcept>

#include "common/angle.hpp"

namespace adsec {

Road::Road(std::vector<RoadSegmentSpec> specs, int num_lanes, double lane_width)
    : num_lanes_(num_lanes), lane_width_(lane_width) {
  if (num_lanes < 1) throw std::invalid_argument("Road: num_lanes must be >= 1");
  if (lane_width <= 0.0) throw std::invalid_argument("Road: lane_width must be > 0");
  if (specs.empty()) throw std::invalid_argument("Road: need at least one segment");

  Vec2 cursor{0.0, 0.0};
  double heading = 0.0;
  double s = 0.0;
  for (const auto& spec : specs) {
    if (spec.length <= 0.0) throw std::invalid_argument("Road: segment length must be > 0");
    Segment seg;
    seg.s0 = s;
    seg.length = spec.length;
    seg.curvature = spec.curvature;
    seg.start = cursor;
    seg.heading0 = heading;

    // Advance cursor to the end of this segment.
    const RoadPose end = pose_in_segment(seg, spec.length);
    seg.tangent = unit_from_heading(heading);
    seg.end = end.position;
    seg.end_tangent = unit_from_heading(end.heading);
    if (std::abs(spec.curvature) >= 1e-12) {
      seg.center = seg.start + seg.tangent.perp() * (1.0 / spec.curvature);
      seg.sweep = spec.length * std::abs(spec.curvature);
    }
    segments_.push_back(seg);
    cursor = end.position;
    heading = end.heading;
    s += spec.length;
  }
  total_length_ = s;

  // Build the projection lookup table.
  const int n = static_cast<int>(total_length_ / lut_step_) + 1;
  lut_.reserve(static_cast<std::size_t>(n) + 1);
  for (int i = 0; i <= n; ++i) {
    const double si = std::min(total_length_, i * lut_step_);
    lut_.push_back({pose_at(si).position, si});
  }
}

Road Road::freeway(double length, int num_lanes, double lane_width) {
  // Straight entry, a long sweeping curve, and a straight exit — the profile
  // of a freeway section like Town 4 Road 23.
  const double straight = length * 0.3;
  const double curved = length * 0.4;
  return Road({{straight, 0.0}, {curved, 1.0 / 800.0}, {length - straight - curved, 0.0}},
              num_lanes, lane_width);
}

Road Road::s_curve(double length, int num_lanes, double lane_width, double radius) {
  const double seg = length / 4.0;
  return Road({{seg, 0.0},
               {seg, 1.0 / radius},
               {seg, -1.0 / radius},
               {seg, 1.0 / radius}},
              num_lanes, lane_width);
}

double Road::lane_center_offset(int lane) const {
  if (lane < 0 || lane >= num_lanes_) throw std::out_of_range("Road: bad lane index");
  // Lane 0 (right-most) sits at the most negative offset.
  return (lane - 0.5 * (num_lanes_ - 1)) * lane_width_;
}

int Road::lane_at_offset(double d) const {
  const double rel = d / lane_width_ + 0.5 * (num_lanes_ - 1);
  const int lane = static_cast<int>(std::floor(rel + 0.5));
  return clamp(lane, 0, num_lanes_ - 1);
}

RoadPose Road::pose_in_segment(const Segment& seg, double ds) const {
  RoadPose pose;
  if (std::abs(seg.curvature) < 1e-12) {
    pose.heading = seg.heading0;
    pose.position = seg.start + unit_from_heading(seg.heading0) * ds;
    pose.curvature = 0.0;
    return pose;
  }
  const double r = 1.0 / seg.curvature;  // signed radius
  const double dtheta = ds * seg.curvature;
  // Circle center is to the left (positive curvature) of the start pose.
  const Vec2 center = seg.start + unit_from_heading(seg.heading0).perp() * r;
  const Vec2 radial = seg.start - center;
  pose.position = center + radial.rotated(dtheta);
  pose.heading = wrap_angle(seg.heading0 + dtheta);
  pose.curvature = seg.curvature;
  return pose;
}

RoadPose Road::pose_at(double s) const {
  const double sc = clamp(s, 0.0, total_length_);
  // Segments are few (<=4); linear scan is fine and branch-predictable.
  const Segment* seg = &segments_.back();
  for (const auto& candidate : segments_) {
    if (sc <= candidate.s0 + candidate.length) {
      seg = &candidate;
      break;
    }
  }
  return pose_in_segment(*seg, sc - seg->s0);
}

Vec2 Road::world_at(double s, double d) const {
  const RoadPose pose = pose_at(s);
  return pose.position + unit_from_heading(pose.heading).perp() * d;
}

Frenet Road::project(const Vec2& p) const {
  // Coarse pass over the lookup table.
  double best_d2 = 1e300;
  double best_s = 0.0;
  for (const auto& e : lut_) {
    const double d2 = (p - e.p).norm2();
    if (d2 < best_d2) {
      best_d2 = d2;
      best_s = e.s;
    }
  }
  // Refine with a few Newton-like steps: move s along the tangent component
  // of the error. Converges fast because curvature is small.
  double s = best_s;
  for (int it = 0; it < 8; ++it) {
    const RoadPose pose = pose_at(s);
    const Vec2 tangent = unit_from_heading(pose.heading);
    const double ds = (p - pose.position).dot(tangent);
    s = clamp(s + ds, 0.0, total_length_);
    if (std::abs(ds) < 1e-6) break;
  }
  const RoadPose pose = pose_at(s);
  const Vec2 normal = unit_from_heading(pose.heading).perp();
  return {s, (p - pose.position).dot(normal)};
}

Frenet Road::project_closed_form(const Vec2& p) const {
  double best_d2 = 1e300;
  Frenet best;
  for (const auto& seg : segments_) {
    Frenet f;
    double d2;
    if (std::abs(seg.curvature) < 1e-12) {
      const Vec2 rel = p - seg.start;
      const double u = clamp(rel.dot(seg.tangent), 0.0, seg.length);
      f = {seg.s0 + u, seg.tangent.cross(rel)};
      d2 = (rel - seg.tangent * u).norm2();
    } else {
      // Turn angle from the segment start to p's radial direction, in the
      // direction of travel; the foot point is interior iff it lies in
      // [0, sweep].
      const Vec2 v = p - seg.center;
      const Vec2 radial0 = seg.start - seg.center;
      const double sign = seg.curvature > 0.0 ? 1.0 : -1.0;
      double psi = sign * std::atan2(radial0.cross(v), radial0.dot(v));
      if (psi < 0.0 && psi + 2.0 * kPi <= seg.sweep) psi += 2.0 * kPi;
      if (psi >= 0.0 && psi <= seg.sweep) {
        f = {seg.s0 + psi / std::abs(seg.curvature),
             1.0 / seg.curvature - sign * std::sqrt(v.norm2())};
        d2 = f.d * f.d;
      } else {
        // Clamped to the nearer segment end, measured along its normal.
        const Vec2 to_start = p - seg.start;
        const Vec2 to_end = p - seg.end;
        if (to_start.norm2() <= to_end.norm2()) {
          f = {seg.s0, seg.tangent.cross(to_start)};
          d2 = to_start.norm2();
        } else {
          f = {seg.s0 + seg.length, seg.end_tangent.cross(to_end)};
          d2 = to_end.norm2();
        }
      }
    }
    if (d2 < best_d2) {
      best_d2 = d2;
      best = f;
    }
  }
  return best;
}

}  // namespace adsec
