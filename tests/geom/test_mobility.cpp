// Tests for the receiver mobility models.
#include "geom/mobility.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace densevlc::geom {
namespace {

TEST(Static, NeverMoves) {
  const StaticMobility m{{1.0, 2.0, 0.0}};
  EXPECT_EQ(m.position(0.0), (geom::Vec3{1.0, 2.0, 0.0}));
  EXPECT_EQ(m.position(100.0), (geom::Vec3{1.0, 2.0, 0.0}));
}

TEST(Waypoint, RejectsEmptyAndNonMonotonic) {
  EXPECT_THROW(WaypointMobility{std::vector<WaypointMobility::Waypoint>{}},
               std::invalid_argument);
  EXPECT_THROW(
      WaypointMobility({{1.0, {0, 0, 0}}, {1.0, {1, 1, 0}}}),
      std::invalid_argument);
}

TEST(Waypoint, InterpolatesLinearly) {
  const WaypointMobility m({{0.0, {0.0, 0.0, 0.0}}, {10.0, {2.0, 4.0, 0.0}}});
  const auto mid = m.position(5.0);
  EXPECT_NEAR(mid.x, 1.0, 1e-12);
  EXPECT_NEAR(mid.y, 2.0, 1e-12);
}

TEST(Waypoint, HoldsAtEnds) {
  const WaypointMobility m({{1.0, {1.0, 1.0, 0.0}}, {2.0, {3.0, 3.0, 0.0}}});
  EXPECT_EQ(m.position(0.0), (geom::Vec3{1.0, 1.0, 0.0}));
  EXPECT_EQ(m.position(99.0), (geom::Vec3{3.0, 3.0, 0.0}));
}

TEST(Waypoint, MultiSegmentPath) {
  const WaypointMobility m({{0.0, {0.0, 0.0, 0.0}},
                            {1.0, {1.0, 0.0, 0.0}},
                            {2.0, {1.0, 1.0, 0.0}}});
  EXPECT_NEAR(m.position(0.5).x, 0.5, 1e-12);
  EXPECT_NEAR(m.position(1.5).y, 0.5, 1e-12);
  EXPECT_NEAR(m.position(1.5).x, 1.0, 1e-12);
}

}  // namespace
}  // namespace densevlc::geom
