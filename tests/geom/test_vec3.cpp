// Tests for the 3-D vector algebra.
#include "geom/vec3.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace densevlc::geom {
namespace {

TEST(Vec3, ArithmeticBasics) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{4.0, 5.0, 6.0};
  EXPECT_EQ(a + b, (Vec3{5.0, 7.0, 9.0}));
  EXPECT_EQ(b - a, (Vec3{3.0, 3.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec3{2.0, 4.0, 6.0}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(b / 2.0, (Vec3{2.0, 2.5, 3.0}));
}

TEST(Vec3, DotAndNorm) {
  const Vec3 a{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
}

TEST(Vec3, NormalizedHasUnitLength) {
  const Vec3 a{1.0, 2.0, -2.0};
  EXPECT_NEAR(a.normalized().norm(), 1.0, 1e-15);
}

TEST(Vec3, CrossProductOrthogonal) {
  const Vec3 x{1.0, 0.0, 0.0};
  const Vec3 y{0.0, 1.0, 0.0};
  EXPECT_EQ(x.cross(y), (Vec3{0.0, 0.0, 1.0}));
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-2.0, 0.5, 4.0};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3, Distance) {
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0} - Vec3{0, 0, 0}).norm(), 5.0);
}

TEST(Pose, CeilingFacesDown) {
  const Pose p = ceiling_pose(1.0, 2.0, 2.8);
  EXPECT_EQ(p.position, (Vec3{1.0, 2.0, 2.8}));
  EXPECT_EQ(p.normal, (Vec3{0.0, 0.0, -1.0}));
}

TEST(Pose, FloorFacesUp) {
  const Pose p = floor_pose(0.5, 0.5, 0.8);
  EXPECT_EQ(p.normal, (Vec3{0.0, 0.0, 1.0}));
}

}  // namespace
}  // namespace densevlc::geom
