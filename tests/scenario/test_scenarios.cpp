// Tests for the paper's evaluation scenarios.
#include "scenario/scenarios.hpp"

#include <gtest/gtest.h>

namespace densevlc::scenario {
namespace {

TEST(Scenario, SimulationTestbedMatchesTable1) {
  const auto tb = core::make_simulation_testbed();
  EXPECT_EQ(tb.grid.count(), 36u);
  EXPECT_DOUBLE_EQ(tb.grid.pitch, 0.5);
  EXPECT_DOUBLE_EQ(tb.grid.mount_height_m, 2.8);
  EXPECT_DOUBLE_EQ(tb.rx_height_m, 0.8);
  EXPECT_NEAR(tb.emitter.half_power_semi_angle_rad, 0.2618, 1e-4);
  EXPECT_DOUBLE_EQ(tb.budget.bandwidth_hz, 1e6);
  EXPECT_DOUBLE_EQ(tb.budget.noise_psd_a2_per_hz, 7.02e-23);
  EXPECT_DOUBLE_EQ(tb.led.operating_point().bias_current_a, 0.45);
  EXPECT_DOUBLE_EQ(tb.led.operating_point().max_swing_current_a, 0.9);
}

TEST(Scenario, ExperimentalTestbedAtTwoMeters) {
  const auto tb = core::make_experimental_testbed();
  EXPECT_DOUBLE_EQ(tb.grid.mount_height_m, 2.0);
  EXPECT_DOUBLE_EQ(tb.rx_height_m, 0.0);
}

TEST(Scenario, Fig7PositionsMatchTable6Scenario2) {
  const auto rx = fig7_rx_positions();
  ASSERT_EQ(rx.size(), 4u);
  EXPECT_DOUBLE_EQ(rx[0].x, 0.92);
  EXPECT_DOUBLE_EQ(rx[0].y, 0.92);
  EXPECT_DOUBLE_EQ(rx[3].x, 1.99);
  EXPECT_DOUBLE_EQ(rx[3].y, 1.69);
}

TEST(Scenario, Scenario1IsWellSeparated) {
  const auto rx = scenario1_rx_positions();
  ASSERT_EQ(rx.size(), 4u);
  // 2 m inter-RX spacing (interference-free by design).
  EXPECT_NEAR((rx[0] - rx[1]).norm(), 2.0, 1e-12);
  EXPECT_NEAR((rx[0] - rx[2]).norm(), 2.0, 1e-12);
}

TEST(Scenario, Scenario3IsUnderTxs) {
  const auto rx = scenario3_rx_positions();
  const auto tb = core::make_experimental_testbed();
  const auto poses = tb.tx_poses();
  // Every scenario-3 RX sits exactly under some TX.
  for (const auto& r : rx) {
    bool under = false;
    for (const auto& p : poses) {
      if (std::abs(p.position.x - r.x) < 1e-9 &&
          std::abs(p.position.y - r.y) < 1e-9) {
        under = true;
      }
    }
    EXPECT_TRUE(under) << "(" << r.x << "," << r.y << ")";
  }
}

TEST(Scenario, RandomInstancesRespectAnchorsAndRoom) {
  const auto tb = core::make_simulation_testbed();
  const auto instances = random_instances(100, 0.3, tb.room, 42);
  ASSERT_EQ(instances.size(), 100u);
  const auto anchors = fig7_rx_positions();
  for (const auto& inst : instances) {
    ASSERT_EQ(inst.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_LE((inst[k] - anchors[k]).norm(), 0.3 + 1e-9);
      EXPECT_TRUE(tb.room.contains_xy(inst[k].x, inst[k].y));
    }
  }
}

TEST(Scenario, RandomInstancesDeterministic) {
  const auto tb = core::make_simulation_testbed();
  const auto a = random_instances(5, 0.3, tb.room, 7);
  const auto b = random_instances(5, 0.3, tb.room, 7);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(a[i][k], b[i][k]);
    }
  }
  const auto c = random_instances(5, 0.3, tb.room, 8);
  EXPECT_NE(a[0][0], c[0][0]);
}

TEST(Scenario, ChannelMatrixHasExpectedShape) {
  const auto tb = core::make_simulation_testbed();
  const auto h = tb.channel_for(fig7_rx_positions());
  EXPECT_EQ(h.num_tx(), 36u);
  EXPECT_EQ(h.num_rx(), 4u);
  // Every RX sees at least one TX.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_GT(h.gain(h.best_tx_for(k), k), 0.0);
  }
}

TEST(Scenario, RxPosesFaceUpAtConfiguredHeight) {
  const auto tb = core::make_simulation_testbed();
  const auto poses = tb.rx_poses(fig7_rx_positions());
  for (const auto& p : poses) {
    EXPECT_DOUBLE_EQ(p.position.z, 0.8);
    EXPECT_DOUBLE_EQ(p.normal.z, 1.0);
  }
}

}  // namespace
}  // namespace densevlc::scenario
