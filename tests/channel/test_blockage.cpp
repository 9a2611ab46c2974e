// Tests for the LOS blockage model (paper Sec. 9).
#include "channel/blockage.hpp"

#include <gtest/gtest.h>

#include "scenario/scenarios.hpp"

namespace densevlc::channel {
namespace {

TEST(Blockage, DirectHitBlocks) {
  // TX above, RX below, blocker exactly between them.
  const geom::Vec3 tx{1.0, 1.0, 2.8};
  const geom::Vec3 rx{1.0, 1.0, 0.8};
  const CylinderBlocker person{1.0, 1.0, 0.15, 1.7};
  EXPECT_TRUE(segment_blocked(tx, rx, person));
}

TEST(Blockage, MissesOffsetBlocker) {
  const geom::Vec3 tx{1.0, 1.0, 2.8};
  const geom::Vec3 rx{1.0, 1.0, 0.8};
  const CylinderBlocker person{1.5, 1.0, 0.15, 1.7};
  EXPECT_FALSE(segment_blocked(tx, rx, person));
}

TEST(Blockage, ShortBlockerMissesHighLink) {
  // Link from (0,0,2.8) to (2,0,2.0): stays above z = 2.0; a 1.7 m
  // person cannot touch it.
  const geom::Vec3 tx{0.0, 0.0, 2.8};
  const geom::Vec3 rx{2.0, 0.0, 2.0};
  const CylinderBlocker person{1.0, 0.0, 0.3, 1.7};
  EXPECT_FALSE(segment_blocked(tx, rx, person));
}

TEST(Blockage, ObliqueLinkBlockedOnlyWhereLow) {
  // Slanted link dips below the blocker height near the RX end.
  const geom::Vec3 tx{0.0, 0.0, 2.8};
  const geom::Vec3 rx{2.0, 0.0, 0.0};
  // Standing near the RX (link low there): blocked.
  EXPECT_TRUE(segment_blocked(tx, rx, {1.8, 0.0, 0.2, 1.7}));
  // Standing near the TX (link at z ~2.5 there): clear.
  EXPECT_FALSE(segment_blocked(tx, rx, {0.2, 0.0, 0.2, 1.7}));
}

TEST(Blockage, SideGrazeDoesNotBlock) {
  const geom::Vec3 tx{0.0, 0.0, 2.8};
  const geom::Vec3 rx{2.0, 0.0, 0.0};
  // Cylinder tangent to the segment's XY projection.
  const CylinderBlocker graze{1.0, 0.2000001, 0.2, 1.7};
  EXPECT_FALSE(segment_blocked(tx, rx, graze));
}

TEST(Blockage, ApplyZeroesOnlyBlockedLinks) {
  const auto tb = core::make_experimental_testbed();
  const auto rx_xy = scenario::fig7_rx_positions();
  const auto h = tb.channel_for(rx_xy);
  const auto tx_poses = tb.tx_poses();
  const auto rx_poses = tb.rx_poses(rx_xy);

  // A person standing right on RX1 blocks everything to RX1; other
  // links are zeroed exactly when their segment intersects the body
  // (low cross-room links passing the spot also get shadowed).
  const std::vector<CylinderBlocker> blockers{
      {rx_xy[0].x, rx_xy[0].y, 0.25, 1.7}};
  const auto blocked = apply_blockage(h, tx_poses, rx_poses, blockers);
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    EXPECT_DOUBLE_EQ(blocked.gain(j, 0), 0.0);
    for (std::size_t k = 1; k < h.num_rx(); ++k) {
      const bool hit = segment_blocked(tx_poses[j].position,
                                       rx_poses[k].position, blockers[0]);
      EXPECT_DOUBLE_EQ(blocked.gain(j, k), hit ? 0.0 : h.gain(j, k))
          << j << "," << k;
    }
  }
}

TEST(Blockage, NoBlockersIsIdentity) {
  const auto tb = core::make_experimental_testbed();
  const auto h = tb.channel_for(scenario::fig7_rx_positions());
  const auto same = apply_blockage(h, tb.tx_poses(),
                                   tb.rx_poses(scenario::fig7_rx_positions()), {});
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    for (std::size_t k = 0; k < h.num_rx(); ++k) {
      EXPECT_DOUBLE_EQ(same.gain(j, k), h.gain(j, k));
    }
  }
}

TEST(Blockage, VerticalSegmentInsideCylinder) {
  const CylinderBlocker blocker{0.0, 0.0, 0.3, 1.7};
  EXPECT_TRUE(
      segment_blocked({0.0, 0.0, 2.8}, {0.0, 0.0, 0.0}, blocker));
  EXPECT_FALSE(
      segment_blocked({1.0, 0.0, 2.8}, {1.0, 0.0, 0.0}, blocker));
}

}  // namespace
}  // namespace densevlc::channel
