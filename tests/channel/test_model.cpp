// Tests for the channel matrix, SINR (Eq. 12), throughput and power
// accounting (Eqs. 7, 11).
#include "channel/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/units.hpp"
#include "geom/vec3.hpp"
#include "scenario/compile.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::channel {
namespace {

LinkBudget paper_budget() {
  return core::make_simulation_testbed().budget;
}

/// Tiny 2x2 setup with hand-set gains for closed-form checks.
ChannelMatrix tiny_matrix() {
  // TX0 strong to RX0, weak to RX1; TX1 symmetric.
  return ChannelMatrix{2, 2, {1e-6, 1e-8, 1e-8, 1e-6}};
}

TEST(ChannelMatrix, SizeValidation) {
  EXPECT_THROW((ChannelMatrix{2, 2, {1.0}}), std::invalid_argument);
}

TEST(ChannelMatrix, GeometryBestTxMatchesPaper) {
  const auto tb = core::make_simulation_testbed();
  const auto h = tb.channel_for(scenario::fig7_rx_positions());
  EXPECT_EQ(h.num_tx(), 36u);
  EXPECT_EQ(h.num_rx(), 4u);
  // Paper Sec. 4.2: TX8 serves RX1 first, TX10 serves RX2 first
  // (1-based); our indices are 0-based.
  EXPECT_EQ(h.best_tx_for(0), 7u);
  EXPECT_EQ(h.best_tx_for(1), 9u);
}

TEST(ChannelMatrix, SetGainOverwrites) {
  auto h = tiny_matrix();
  h.set_gain(0, 1, 0.5);
  EXPECT_DOUBLE_EQ(h.gain(0, 1), 0.5);
}

TEST(Allocation, RowTotals) {
  Allocation a{2, 2};
  a.set_swing(0, 0, 0.4);
  a.set_swing(0, 1, 0.3);
  EXPECT_DOUBLE_EQ(a.tx_total_swing(0).value(), 0.7);
  EXPECT_DOUBLE_EQ(a.tx_total_swing(1).value(), 0.0);
}

TEST(Power, QuadraticInTotalSwing) {
  const auto b = paper_budget();
  EXPECT_NEAR(tx_comm_power(900.0_mA, b).value(),
              b.dynamic_resistance_ohm * 0.45 * 0.45, 1e-15);
  // Splitting a TX's swing across RXs costs the same as one big swing.
  Allocation split{1, 2};
  split.set_swing(0, 0, 0.5);
  split.set_swing(0, 1, 0.4);
  Allocation merged{1, 1};
  merged.set_swing(0, 0, 0.9);
  EXPECT_NEAR(total_comm_power(split, b).value(),
              total_comm_power(merged, b).value(), 1e-15);
}

TEST(Sinr, ZeroAllocationIsZero) {
  const auto s = sinr(tiny_matrix(), Allocation{2, 2}, paper_budget());
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(Sinr, SingleLinkClosedForm) {
  const auto b = paper_budget();
  auto h = tiny_matrix();
  Allocation a{2, 2};
  a.set_swing(0, 0, 0.9);
  const double scale = b.responsivity_a_per_w * b.wall_plug_efficiency *
                       b.dynamic_resistance_ohm;
  const double current = scale * 1e-6 * 0.45 * 0.45;
  const double expected =
      current * current / (b.noise_psd_a2_per_hz * b.bandwidth_hz);
  EXPECT_NEAR(sinr(h, a, b)[0], expected, expected * 1e-12);
}

TEST(Sinr, InterferenceLowersSinr) {
  const auto b = paper_budget();
  const auto h = tiny_matrix();
  Allocation alone{2, 2};
  alone.set_swing(0, 0, 0.9);
  Allocation both = alone;
  both.set_swing(1, 1, 0.9);  // TX1 serves RX1, interferes at RX0
  EXPECT_GT(sinr(h, alone, b)[0], sinr(h, both, b)[0]);
}

TEST(Sinr, MoreServersRaiseSinr) {
  const auto b = paper_budget();
  const auto tb = core::make_simulation_testbed();
  const auto h = tb.channel_for({{0.92, 0.92, 0.0}});
  Allocation one{36, 1};
  one.set_swing(h.best_tx_for(0), 0, 0.9);
  Allocation two = one;
  two.set_swing(13, 0, 0.9);  // TX14, the second-preferred for this spot
  EXPECT_GT(sinr(h, two, b)[0], sinr(h, one, b)[0]);
}

TEST(Throughput, ShannonOfSinr) {
  const auto b = paper_budget();
  const auto h = tiny_matrix();
  Allocation a{2, 2};
  a.set_swing(0, 0, 0.9);
  const auto s = sinr(h, a, b);
  const auto t = throughput_bps(h, a, b);
  EXPECT_NEAR(t[0], b.bandwidth_hz * std::log2(1.0 + s[0]), 1e-6);
  EXPECT_DOUBLE_EQ(t[1], 0.0);
}

TEST(Utility, MonotoneInThroughput) {
  const auto b = paper_budget();
  const auto h = tiny_matrix();
  Allocation weak{2, 2};
  weak.set_swing(0, 0, 0.3);
  weak.set_swing(1, 1, 0.3);
  Allocation strong{2, 2};
  strong.set_swing(0, 0, 0.9);
  strong.set_swing(1, 1, 0.9);
  EXPECT_GT(sum_log_utility(h, strong, b), sum_log_utility(h, weak, b));
}

TEST(Utility, FiniteWhenOneRxIsDark) {
  const auto b = paper_budget();
  const auto h = tiny_matrix();
  Allocation a{2, 2};
  a.set_swing(0, 0, 0.9);  // RX1 gets nothing
  const double u = sum_log_utility(h, a, b);
  EXPECT_TRUE(std::isfinite(u));
}

TEST(LinkBudget, FromLedDerivesScalars) {
  const optics::LedModel led{optics::LedElectrical{},
                             optics::LedOperatingPoint{0.45, 0.9}};
  const auto b = LinkBudget::from_led(led, AmperesPerWatt{0.4},
                                      AmpsSquaredPerHertz{7.02e-23},
                                      Hertz{1e6});
  EXPECT_DOUBLE_EQ(b.dynamic_resistance_ohm, led.dynamic_resistance().value());
  EXPECT_DOUBLE_EQ(b.wall_plug_efficiency, 0.4);
  EXPECT_DOUBLE_EQ(b.responsivity_a_per_w, 0.4);
}

// Property: SINR of every RX is non-increasing when any *other* RX's
// swing grows (interference monotonicity).
class InterferenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(InterferenceSweep, OtherRxSwingNeverHelps) {
  const auto b = paper_budget();
  const auto tb = core::make_simulation_testbed();
  const auto h = tb.channel_for(scenario::fig7_rx_positions());
  Allocation base{36, 4};
  base.set_swing(7, 0, 0.9);
  base.set_swing(9, 1, GetParam());
  Allocation more = base;
  more.set_swing(9, 1, std::min(0.9, GetParam() + 0.2));
  EXPECT_LE(sinr(h, more, b)[0], sinr(h, base, b)[0] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Swings, InterferenceSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7));

// Incremental column update: recomputing only the moved RXs' columns
// must land bit-for-bit on a full from-scratch rebuild.
TEST(ChannelMatrix, UpdateColumnsMatchesFullRebuild) {
  const auto tb = core::make_simulation_testbed();
  auto rx = scenario::fig7_rx_positions();
  auto h = tb.channel_for(rx);

  rx[1].x += 0.40;
  rx[3].y -= 0.25;
  const auto full = tb.channel_for(rx);

  const std::size_t dirty[] = {1, 3};
  tb.update_channel_for(h, rx, dirty);

  ASSERT_EQ(h.num_tx(), full.num_tx());
  ASSERT_EQ(h.num_rx(), full.num_rx());
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    for (std::size_t k = 0; k < h.num_rx(); ++k) {
      EXPECT_EQ(h.gain(j, k), full.gain(j, k)) << "j=" << j << " k=" << k;
    }
  }
}

// An empty dirty list must leave the matrix untouched.
TEST(ChannelMatrix, UpdateColumnsEmptyDirtyListIsNoOp) {
  const auto tb = core::make_simulation_testbed();
  const auto rx = scenario::fig7_rx_positions();
  auto h = tb.channel_for(rx);
  const auto before = h;
  tb.update_channel_for(h, rx, {});
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    for (std::size_t k = 0; k < h.num_rx(); ++k) {
      EXPECT_EQ(h.gain(j, k), before.gain(j, k));
    }
  }
}

/// FNV-1a over the gain bits, row-major.
std::uint64_t gain_hash(const ChannelMatrix& h) {
  std::vector<double> gains;
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    for (std::size_t k = 0; k < h.num_rx(); ++k) gains.push_back(h.gain(j, k));
  }
  return scenario::hash_doubles(gains);
}

TEST(ChannelMatrix, GeometryGainsArePinned) {
  // The Eq. 2 LOS gains of three geometries, bit for bit. Any change to
  // the Lambertian arithmetic, its operation order or its trig moves them.
  // Fig. 7 RXs under the 36-TX experimental testbed.
  const auto exp_tb = core::make_experimental_testbed();
  EXPECT_EQ(gain_hash(exp_tb.channel_for(scenario::fig7_rx_positions())),
            11929551029213254948ULL);

  // An 8 x 8 simulation grid at 0.375 m pitch with 10 RXs.
  auto grid_tb = core::make_simulation_testbed();
  grid_tb.grid.rows = 8;
  grid_tb.grid.cols = 8;
  grid_tb.grid.pitch = 0.375;
  std::vector<geom::Vec3> xy;
  for (std::size_t k = 0; k < 10; ++k) {
    const double t = static_cast<double>(k);
    xy.push_back({0.35 + 0.23 * t, 2.6 - 0.19 * t, 0.0});
  }
  EXPECT_EQ(gain_hash(grid_tb.channel_for(xy)), 16157932923035991157ULL);

  // Tilted RXs, where cos(phi) != cos(psi) on every link.
  const auto sim_tb = core::make_simulation_testbed();
  std::vector<geom::Pose> tilted;
  for (std::size_t k = 0; k < 6; ++k) {
    const double t = static_cast<double>(k);
    tilted.push_back(
        geom::tilted_pose(0.4 + 0.4 * t, 1.1 + 0.2 * t, 0.8, 0.1 + 0.12 * t,
                          0.7 * t));
  }
  EXPECT_EQ(gain_hash(sim_tb.channel_for_poses(tilted)),
            17582807819268100665ULL);
}

// Eq. 2 per link as first written: every link resolves both angles with
// its own acos, takes the cosines back with cos, and recomputes the
// Lambertian order and the concentrator gain. Kept verbatim as the
// reference for the per-matrix constants and the shared incidence angle.
double los_gain_reference(const optics::LambertianEmitter& emitter,
                          const optics::Photodiode& pd,
                          const geom::Pose& tx_pose,
                          const geom::Pose& rx_pose) {
  const geom::Vec3 delta = rx_pose.position - tx_pose.position;
  const double distance = delta.norm();
  if (distance <= 0.0) return 0.0;
  const geom::Vec3 dir = delta / distance;
  const double cos_phi_raw = tx_pose.normal.dot(dir);
  const double cos_psi_raw = rx_pose.normal.dot(geom::Vec3{} - dir);
  if (cos_phi_raw <= 0.0 || cos_psi_raw <= 0.0) return 0.0;
  const double phi = std::acos(std::min(1.0, cos_phi_raw));
  const double psi = std::acos(std::min(1.0, cos_psi_raw));
  if (!(psi <= pd.field_of_view_rad)) return 0.0;
  const double m = -std::log(2.0) /
                   std::log(std::cos(emitter.half_power_semi_angle_rad));
  const double cos_phi = std::cos(phi);
  const double cos_psi = std::cos(psi);
  double concentrator = 0.0;
  const double s = std::sin(pd.field_of_view_rad);
  if (psi <= pd.field_of_view_rad && s > 0.0) {
    concentrator = pd.concentrator_index * pd.concentrator_index / (s * s);
  }
  return (m + 1.0) * pd.collection_area_m2 /
         (2.0 * kPi * distance * distance) * std::pow(cos_phi, m) *
         concentrator * cos_psi;
}

void expect_matches_reference(const std::vector<geom::Pose>& tx,
                              const std::vector<geom::Pose>& rx,
                              const optics::LambertianEmitter& emitter,
                              const optics::Photodiode& pd) {
  const auto full = ChannelMatrix::from_geometry(tx, rx, emitter, pd);
  // Every other column recomputed over a poisoned matrix: the dirty
  // columns must land on the reference, the clean ones keep the poison.
  ChannelMatrix partial{tx.size(), rx.size(),
                        std::vector<double>(tx.size() * rx.size(), -7.0)};
  std::vector<std::size_t> dirty;
  for (std::size_t k = 0; k < rx.size(); k += 2) dirty.push_back(k);
  partial.update_columns_from_geometry(tx, rx, emitter, pd, dirty);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const optics::LosModel one_link{emitter, pd};
  std::size_t lit = 0;
  for (std::size_t j = 0; j < tx.size(); ++j) {
    for (std::size_t k = 0; k < rx.size(); ++k) {
      const std::uint64_t want =
          bits(los_gain_reference(emitter, pd, tx[j], rx[k]));
      EXPECT_EQ(bits(full.gain(j, k)), want) << "j=" << j << " k=" << k;
      EXPECT_EQ(bits(one_link.gain(tx[j], rx[k])), want)
          << "j=" << j << " k=" << k;
      EXPECT_EQ(bits(partial.gain(j, k)), k % 2 == 0 ? want : bits(-7.0))
          << "j=" << j << " k=" << k;
      if (full.gain(j, k) > 0.0) ++lit;
    }
  }
  EXPECT_GT(lit, 0u) << "every link dark: the case checks nothing";
}

TEST(Lambertian, MatrixMatchesPerLinkFormula) {
  const auto tb = core::make_simulation_testbed();
  const auto tx = tb.tx_poses();

  // Vertical poses: the Fig. 7 RXs, one straight under TX 0 and one at
  // TX 0 itself (zero distance).
  auto vertical = tb.rx_poses(scenario::fig7_rx_positions());
  vertical.push_back(geom::floor_pose(tx[0].position.x, tx[0].position.y,
                                      0.8));
  vertical.push_back(tx[0]);
  {
    SCOPED_TRACE("vertical poses");
    expect_matches_reference(tx, vertical, tb.emitter, tb.pd);
  }

  std::vector<geom::Pose> tilted;
  for (std::size_t k = 0; k < 12; ++k) {
    const double t = static_cast<double>(k);
    tilted.push_back(geom::tilted_pose(0.2 + 0.22 * t, 2.7 - 0.21 * t, 0.8,
                                       0.05 * t, 0.55 * t));
  }
  // Tilted toward the TX straight above it: cos(psi) rounds to 1.
  tilted.push_back(geom::tilted_pose(tx[7].position.x, tx[7].position.y,
                                     0.8, 1e-9, 0.3));
  // A normal one ulp longer than unit under TX 9: cos(psi) exceeds 1 and
  // only the clamp keeps acos finite.
  tilted.push_back(geom::Pose{{tx[9].position.x, tx[9].position.y, 0.8},
                              {0.0, 0.0, std::nextafter(1.0, 2.0)}});
  {
    SCOPED_TRACE("tilted RXs");
    expect_matches_reference(tx, tilted, tb.emitter, tb.pd);
  }
  {
    SCOPED_TRACE("restricted field of view");
    optics::Photodiode narrow = tb.pd;
    narrow.field_of_view_rad = units::deg_to_rad(35.0);
    expect_matches_reference(tx, tilted, tb.emitter, narrow);
    expect_matches_reference(tx, vertical, tb.emitter, narrow);
  }
  {
    SCOPED_TRACE("concentrator index > 1, wide lens");
    optics::Photodiode concentrated = tb.pd;
    concentrated.concentrator_index = 1.5;
    concentrated.field_of_view_rad = units::deg_to_rad(60.0);
    optics::LambertianEmitter wide = tb.emitter;
    wide.half_power_semi_angle_rad = units::deg_to_rad(60.0);
    expect_matches_reference(tx, tilted, wide, concentrated);
    expect_matches_reference(tx, vertical, wide, concentrated);
  }
}

}  // namespace
}  // namespace densevlc::channel
