#include "sim/road.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/angle.hpp"
#include "common/rng.hpp"
#include "sim/scenario.hpp"

namespace adsec {
namespace {

Road straight_road() { return Road({{500.0, 0.0}}, 3, 3.5); }

TEST(Road, ValidatesConstruction) {
  EXPECT_THROW(Road({}, 3, 3.5), std::invalid_argument);
  EXPECT_THROW(Road({{100.0, 0.0}}, 0, 3.5), std::invalid_argument);
  EXPECT_THROW(Road({{100.0, 0.0}}, 3, 0.0), std::invalid_argument);
  EXPECT_THROW(Road({{-5.0, 0.0}}, 3, 3.5), std::invalid_argument);
}

TEST(Road, StraightPoseAdvancesAlongX) {
  const Road r = straight_road();
  const RoadPose p = r.pose_at(123.0);
  EXPECT_NEAR(p.position.x, 123.0, 1e-9);
  EXPECT_NEAR(p.position.y, 0.0, 1e-9);
  EXPECT_NEAR(p.heading, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.curvature, 0.0);
}

TEST(Road, PoseClampsOutOfRange) {
  const Road r = straight_road();
  EXPECT_NEAR(r.pose_at(-10.0).position.x, 0.0, 1e-9);
  EXPECT_NEAR(r.pose_at(1e9).position.x, 500.0, 1e-9);
}

TEST(Road, LaneOffsetsSymmetricAroundCenter) {
  const Road r = straight_road();
  EXPECT_DOUBLE_EQ(r.lane_center_offset(0), -3.5);
  EXPECT_DOUBLE_EQ(r.lane_center_offset(1), 0.0);
  EXPECT_DOUBLE_EQ(r.lane_center_offset(2), 3.5);
  EXPECT_THROW(r.lane_center_offset(3), std::out_of_range);
  EXPECT_THROW(r.lane_center_offset(-1), std::out_of_range);
}

TEST(Road, LaneAtOffsetInverse) {
  const Road r = straight_road();
  for (int lane = 0; lane < r.num_lanes(); ++lane) {
    EXPECT_EQ(r.lane_at_offset(r.lane_center_offset(lane)), lane);
    // Anywhere within the lane maps back to it.
    EXPECT_EQ(r.lane_at_offset(r.lane_center_offset(lane) + 1.7), lane);
    EXPECT_EQ(r.lane_at_offset(r.lane_center_offset(lane) - 1.7), lane);
  }
  // Outside the road clamps to edge lanes.
  EXPECT_EQ(r.lane_at_offset(-100.0), 0);
  EXPECT_EQ(r.lane_at_offset(100.0), 2);
}

TEST(Road, HalfWidth) {
  EXPECT_DOUBLE_EQ(straight_road().half_width(), 5.25);
}

TEST(Road, WorldAtRoundTripsThroughProject) {
  const Road r = Road::freeway();
  for (double s : {5.0, 100.0, 250.0, 400.0, 550.0}) {
    for (double d : {-3.5, -1.0, 0.0, 2.0, 3.5}) {
      const Vec2 p = r.world_at(s, d);
      const Frenet f = r.project(p);
      EXPECT_NEAR(f.s, s, 0.05) << "s=" << s << " d=" << d;
      EXPECT_NEAR(f.d, d, 0.01) << "s=" << s << " d=" << d;
    }
  }
}

TEST(Road, CurvedSegmentTurnsHeading) {
  // Quarter circle of radius 100 to the left.
  const double radius = 100.0;
  Road r({{radius * kPi / 2.0, 1.0 / radius}}, 1, 3.5);
  const RoadPose end = r.pose_at(r.length());
  EXPECT_NEAR(end.heading, kPi / 2.0, 1e-6);
  EXPECT_NEAR(end.position.x, radius, 1e-6);
  EXPECT_NEAR(end.position.y, radius, 1e-6);
}

TEST(Road, RightCurveTurnsNegative) {
  const double radius = 50.0;
  Road r({{radius * kPi / 2.0, -1.0 / radius}}, 1, 3.5);
  EXPECT_NEAR(r.pose_at(r.length()).heading, -kPi / 2.0, 1e-6);
}

TEST(Road, SegmentsJoinContinuously) {
  Road r({{100.0, 0.0}, {100.0, 0.01}, {100.0, 0.0}}, 2, 3.0);
  // Position must be continuous across joints.
  for (double joint : {100.0, 200.0}) {
    const Vec2 before = r.pose_at(joint - 1e-6).position;
    const Vec2 after = r.pose_at(joint + 1e-6).position;
    EXPECT_NEAR(distance(before, after), 0.0, 1e-4);
  }
}

TEST(Road, SCurveAlternatesCurvature) {
  const Road r = Road::s_curve(600.0, 3, 3.5, 400.0);
  EXPECT_NEAR(r.length(), 600.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.pose_at(50.0).curvature, 0.0);            // entry straight
  EXPECT_GT(r.pose_at(200.0).curvature, 0.0);                  // left sweeper
  EXPECT_LT(r.pose_at(350.0).curvature, 0.0);                  // right sweeper
  EXPECT_GT(r.pose_at(500.0).curvature, 0.0);                  // left again
}

TEST(Road, SCurveProjectionStillAccurate) {
  const Road r = Road::s_curve();
  for (double s : {100.0, 250.0, 400.0, 550.0}) {
    for (double d : {-3.5, 0.0, 3.5}) {
      const Frenet f = r.project(r.world_at(s, d));
      EXPECT_NEAR(f.s, s, 0.1);
      EXPECT_NEAR(f.d, d, 0.02);
    }
  }
}

TEST(Road, FreewayFactoryMatchesRequestedLength) {
  const Road r = Road::freeway(600.0, 3, 3.5);
  EXPECT_NEAR(r.length(), 600.0, 1e-9);
  EXPECT_EQ(r.num_lanes(), 3);
}

class RoadProjectionSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RoadProjectionSweep, ProjectionIsAccurateOnFreeway) {
  const auto [s, d] = GetParam();
  const Road r = Road::freeway();
  const Frenet f = r.project(r.world_at(s, d));
  EXPECT_NEAR(f.s, s, 0.05);
  EXPECT_NEAR(f.d, d, 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoadProjectionSweep,
    ::testing::Combine(::testing::Values(10.0, 150.0, 300.0, 450.0, 590.0),
                       ::testing::Values(-5.0, -1.75, 0.0, 1.75, 5.0)));

// The closed-form estimate against the LUT+Newton project() oracle, over
// s in [-50, L+50] (extended along the end tangents beyond the road ends)
// and |d| <= 30 m: a regular grid that straddles every segment joint, plus
// uniform random points.
void expect_closed_form_tracks_project(const Road& road, const std::string& name) {
  double worst_dd = 0.0, worst_ds = 0.0;
  Vec2 worst_p;
  const auto check = [&](double s, double d) {
    const double sc = clamp(s, 0.0, road.length());
    const RoadPose pose = road.pose_at(sc);
    const Vec2 t = unit_from_heading(pose.heading);
    const Vec2 p = pose.position + t * (s - sc) + t.perp() * d;
    const Frenet want = road.project(p);
    const Frenet got = road.project_closed_form(p);
    const double dd = std::abs(got.d - want.d);
    const double ds = std::abs(got.s - want.s);
    if (dd > worst_dd || ds > worst_ds) worst_p = p;
    worst_dd = std::max(worst_dd, dd);
    worst_ds = std::max(worst_ds, ds);
  };
  for (double s = -50.0; s <= road.length() + 50.0; s += 0.37) {
    for (double d = -30.0; d <= 30.0; d += 0.5) check(s, d);
  }
  Rng rng(17);
  for (int i = 0; i < 50000; ++i) {
    check(rng.uniform(-50.0, road.length() + 50.0), rng.uniform(-30.0, 30.0));
  }
  EXPECT_LE(worst_dd, 1e-9) << name << " worst at (" << worst_p.x << ", " << worst_p.y << ")";
  EXPECT_LE(worst_ds, 1e-6) << name << " worst at (" << worst_p.x << ", " << worst_p.y << ")";
}

TEST(RoadClosedForm, TracksProjectOnFreeway) {
  expect_closed_form_tracks_project(Road::freeway(), "freeway");
}

TEST(RoadClosedForm, TracksProjectOnSCurve) {
  expect_closed_form_tracks_project(Road::s_curve(), "s_curve");
}

TEST(RoadClosedForm, TracksProjectOnTwoLanePreset) {
  Rng rng(1);
  const World w = make_scenario(scenario_preset("two-lane"), rng);
  expect_closed_form_tracks_project(w.road(), "two-lane");
}

TEST(RoadClosedForm, ClampsToRoadEndsLikeProject) {
  const Road r = Road::s_curve();
  const RoadPose end = r.pose_at(r.length());
  const Vec2 t = unit_from_heading(end.heading);
  const Frenet past_end = r.project_closed_form(end.position + t * 20.0 + t.perp() * 4.0);
  EXPECT_DOUBLE_EQ(past_end.s, r.length());
  EXPECT_NEAR(past_end.d, 4.0, 1e-9);
  const Frenet before_start = r.project_closed_form({-20.0, -3.0});
  EXPECT_DOUBLE_EQ(before_start.s, 0.0);
  EXPECT_NEAR(before_start.d, -3.0, 1e-12);
}

}  // namespace
}  // namespace adsec
