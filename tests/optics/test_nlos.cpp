// Tests for the one-bounce NLOS floor-reflection model.
#include "optics/nlos.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"

namespace densevlc::optics {
namespace {

LambertianEmitter paper_emitter() {
  LambertianEmitter e;
  e.half_power_semi_angle_rad = units::deg_to_rad(15.0);
  return e;
}

FloorSurface default_floor() { return FloorSurface{}; }

TEST(Nlos, GainIsPositiveBetweenAdjacentCeilingTxs) {
  const double g = nlos_floor_gain(paper_emitter(), Photodiode{},
                                   geom::ceiling_pose(1.25, 1.25, 2.8),
                                   geom::ceiling_pose(1.75, 1.25, 2.8),
                                   default_floor());
  EXPECT_GT(g, 0.0);
}

TEST(Nlos, MuchWeakerThanLos) {
  // The floor bounce is orders of magnitude below a LOS link at similar
  // range — the reason the paper's RX needs its AC amplification stage.
  const auto e = paper_emitter();
  const Photodiode pd;
  const double nlos = nlos_floor_gain(e, pd,
                                      geom::ceiling_pose(1.25, 1.25, 2.8),
                                      geom::ceiling_pose(1.75, 1.25, 2.8),
                                      default_floor());
  const double los = LosModel{e, pd}.gain(
      geom::ceiling_pose(1.25, 1.25, 2.8), geom::floor_pose(1.25, 1.25, 0.8));
  EXPECT_LT(nlos, los / 10.0);
}

TEST(Nlos, ScalesLinearlyWithReflectance) {
  const auto e = paper_emitter();
  const Photodiode pd;
  FloorSurface dark = default_floor();
  dark.reflectance = 0.2;
  FloorSurface bright = default_floor();
  bright.reflectance = 0.8;
  const auto tx = geom::ceiling_pose(1.25, 1.25, 2.8);
  const auto rx = geom::ceiling_pose(1.75, 1.25, 2.8);
  const double g_dark = nlos_floor_gain(e, pd, tx, rx, dark);
  const double g_bright = nlos_floor_gain(e, pd, tx, rx, bright);
  EXPECT_NEAR(g_bright / g_dark, 4.0, 1e-9);
}

TEST(Nlos, DecreasesWithPeerDistance) {
  const auto e = paper_emitter();
  const Photodiode pd;
  const auto tx = geom::ceiling_pose(1.25, 1.25, 2.8);
  double prev = 1e9;
  for (double dx : {0.5, 1.0, 1.5}) {
    const double g = nlos_floor_gain(
        e, pd, tx, geom::ceiling_pose(1.25 + dx, 1.25, 2.8),
        default_floor());
    EXPECT_LT(g, prev);
    prev = g;
  }
}

TEST(Nlos, ZeroResolutionIsZero) {
  FloorSurface f = default_floor();
  f.patches_per_axis = 0;
  EXPECT_DOUBLE_EQ(
      nlos_floor_gain(paper_emitter(), Photodiode{},
                      geom::ceiling_pose(1.0, 1.0, 2.8),
                      geom::ceiling_pose(1.5, 1.0, 2.8), f),
      0.0);
}

TEST(Nlos, ConvergesWithResolution) {
  const auto e = paper_emitter();
  const Photodiode pd;
  const auto tx = geom::ceiling_pose(1.25, 1.25, 2.8);
  const auto rx = geom::ceiling_pose(1.75, 1.25, 2.8);
  FloorSurface coarse = default_floor();
  coarse.patches_per_axis = 20;
  FloorSurface fine = default_floor();
  fine.patches_per_axis = 80;
  const double g_coarse = nlos_floor_gain(e, pd, tx, rx, coarse);
  const double g_fine = nlos_floor_gain(e, pd, tx, rx, fine);
  EXPECT_NEAR(g_coarse / g_fine, 1.0, 0.05);
}

TEST(Nlos, UpwardFacingReceiverSeesNothingFromFloor) {
  // A PD looking up cannot collect light arriving from below its plane...
  // but a ceiling PD looking *up* sees nothing from the floor bounce.
  geom::Pose rx = geom::ceiling_pose(1.75, 1.25, 2.8);
  rx.normal = {0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(
      nlos_floor_gain(paper_emitter(), Photodiode{},
                      geom::ceiling_pose(1.25, 1.25, 2.8), rx,
                      default_floor()),
      0.0);
}

TEST(Nlos, RestrictedFovExcludesOffAxisPatches) {
  // Neutralize the concentrator boost (set n = sin(FoV) so g(psi) = 1
  // inside the field of view); then shrinking the FoV can only lose
  // patches and must strictly reduce the collected bounce power.
  const auto e = paper_emitter();
  Photodiode wide;
  wide.concentrator_index = std::sin(wide.field_of_view_rad);
  Photodiode narrow;
  narrow.field_of_view_rad = units::deg_to_rad(30.0);
  narrow.concentrator_index = std::sin(narrow.field_of_view_rad);
  const auto tx = geom::ceiling_pose(1.25, 1.25, 2.8);
  const auto rx = geom::ceiling_pose(1.75, 1.25, 2.8);
  const double g_wide = nlos_floor_gain(e, wide, tx, rx, default_floor());
  const double g_narrow =
      nlos_floor_gain(e, narrow, tx, rx, default_floor());
  EXPECT_LT(g_narrow, g_wide);
  EXPECT_GT(g_narrow, 0.0);  // the spot under the TX is still visible
}

}  // namespace
}  // namespace densevlc::optics
