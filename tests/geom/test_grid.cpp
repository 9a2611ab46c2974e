// Tests for room geometry and ceiling grids.
#include "geom/grid.hpp"

#include <gtest/gtest.h>

namespace densevlc::geom {
namespace {

TEST(Grid, PaperLayoutIsCenteredSixBySix) {
  const Room room{3.0, 3.0, 2.8};
  const GridSpec spec{6, 6, 0.5, 2.8};
  const auto poses = make_ceiling_grid(room, spec);
  ASSERT_EQ(poses.size(), 36u);
  // TX1 (index 0) sits at (0.25, 0.25); TX36 at (2.75, 2.75).
  EXPECT_NEAR(poses[0].position.x, 0.25, 1e-12);
  EXPECT_NEAR(poses[0].position.y, 0.25, 1e-12);
  EXPECT_NEAR(poses[35].position.x, 2.75, 1e-12);
  EXPECT_NEAR(poses[35].position.y, 2.75, 1e-12);
}

TEST(Grid, IndexAdvancesAlongXFirst) {
  const Room room{3.0, 3.0, 2.8};
  const GridSpec spec{6, 6, 0.5, 2.8};
  const auto poses = make_ceiling_grid(room, spec);
  // TX2 is 0.5 m along x from TX1; TX7 is 0.5 m along y.
  EXPECT_NEAR(poses[1].position.x - poses[0].position.x, 0.5, 1e-12);
  EXPECT_NEAR(poses[1].position.y, poses[0].position.y, 1e-12);
  EXPECT_NEAR(poses[6].position.y - poses[0].position.y, 0.5, 1e-12);
  EXPECT_NEAR(poses[6].position.x, poses[0].position.x, 1e-12);
}

TEST(Grid, AllPosesFaceDownAtMountHeight) {
  const Room room{3.0, 3.0, 2.8};
  const GridSpec spec{4, 4, 0.6, 2.0};
  for (const auto& p : make_ceiling_grid(room, spec)) {
    EXPECT_DOUBLE_EQ(p.position.z, 2.0);
    EXPECT_DOUBLE_EQ(p.normal.z, -1.0);
  }
}

TEST(Grid, RectangularGridCount) {
  const Room room{4.0, 2.0, 3.0};
  const GridSpec spec{2, 5, 0.4, 3.0};
  EXPECT_EQ(make_ceiling_grid(room, spec).size(), 10u);
  EXPECT_EQ(spec.count(), 10u);
}

TEST(Room, ContainsXy) {
  const Room room{3.0, 3.0, 2.8};
  EXPECT_TRUE(room.contains_xy(0.0, 0.0));
  EXPECT_TRUE(room.contains_xy(3.0, 3.0));
  EXPECT_FALSE(room.contains_xy(-0.1, 1.0));
  EXPECT_FALSE(room.contains_xy(1.0, 3.1));
}

}  // namespace
}  // namespace densevlc::geom
