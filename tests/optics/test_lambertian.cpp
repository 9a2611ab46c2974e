// Tests for the Lambertian LOS channel model (paper Eq. 2).
#include "optics/lambertian.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"

namespace densevlc::optics {
namespace {

LambertianEmitter paper_emitter() {
  LambertianEmitter e;
  e.half_power_semi_angle_rad = units::deg_to_rad(15.0);
  return e;
}

TEST(Lambertian, OrderOfFifteenDegreesIsNearTwenty) {
  // m = -ln 2 / ln(cos 15 deg) ~= 19.97 for the paper's lens.
  EXPECT_NEAR(paper_emitter().order(), 19.97, 0.05);
}

TEST(Lambertian, OrderOfSixtyDegreesIsOne) {
  // The classic bare-LED case: 60 deg half-angle -> m = 1.
  LambertianEmitter e;
  e.half_power_semi_angle_rad = units::deg_to_rad(60.0);
  EXPECT_NEAR(e.order(), 1.0, 1e-12);
}

TEST(Lambertian, HalfPowerAtHalfAngle) {
  // By definition the radiant intensity at phi_1/2 is half the on-axis one.
  const auto e = paper_emitter();
  const double on_axis = radiant_intensity_factor(e, 0.0);
  const double at_half =
      radiant_intensity_factor(e, e.half_power_semi_angle_rad);
  EXPECT_NEAR(at_half / on_axis, 0.5, 1e-9);
}

TEST(Lambertian, GainFollowsInverseSquare) {
  const auto e = paper_emitter();
  const Photodiode pd;
  const geom::Pose rx1 = geom::floor_pose(0.0, 0.0, 0.0);
  const geom::Pose tx1 = geom::ceiling_pose(0.0, 0.0, 1.0);
  const geom::Pose tx2 = geom::ceiling_pose(0.0, 0.0, 2.0);
  const double g1 = LosModel{e, pd}.gain(tx1, rx1);
  const double g2 = LosModel{e, pd}.gain(tx2, rx1);
  EXPECT_NEAR(g1 / g2, 4.0, 1e-9);
}

TEST(Lambertian, OnAxisGainClosedForm) {
  // Directly underneath: H = (m+1) Apd / (2 pi d^2).
  const auto e = paper_emitter();
  const Photodiode pd;
  const double d = 2.0;
  const double expected = (e.order() + 1.0) * pd.collection_area_m2 /
                          (2.0 * kPi * d * d);
  const double g = LosModel{e, pd}.gain(geom::ceiling_pose(1.0, 1.0, 2.8),
                                        geom::floor_pose(1.0, 1.0, 0.8));
  EXPECT_NEAR(g, expected, expected * 1e-12);
}

TEST(Lambertian, GainDecreasesOffAxis) {
  const auto e = paper_emitter();
  const Photodiode pd;
  const geom::Pose tx = geom::ceiling_pose(1.0, 1.0, 2.8);
  double prev = LosModel{e, pd}.gain(tx, geom::floor_pose(1.0, 1.0, 0.8));
  for (double off : {0.2, 0.4, 0.6, 0.8}) {
    const double g =
        LosModel{e, pd}.gain(tx, geom::floor_pose(1.0 + off, 1.0, 0.8));
    EXPECT_LT(g, prev);
    prev = g;
  }
}

TEST(Lambertian, OutsideFieldOfViewIsZero) {
  const auto e = paper_emitter();
  Photodiode pd;
  pd.field_of_view_rad = units::deg_to_rad(20.0);
  // 45 deg incidence: outside a 20 deg FoV.
  const double g = LosModel{e, pd}.gain(geom::ceiling_pose(0.0, 0.0, 1.0),
                                        geom::floor_pose(1.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Lambertian, FacingAwayIsZero) {
  const auto e = paper_emitter();
  const Photodiode pd;
  // Receiver above the emitter: the emitter faces down, so no light.
  const double g = LosModel{e, pd}.gain(geom::ceiling_pose(0.0, 0.0, 1.0),
                                        geom::floor_pose(0.0, 0.0, 2.0));
  EXPECT_DOUBLE_EQ(g, 0.0);
  // Receiver facing down as well (back side): also dark.
  geom::Pose back = geom::floor_pose(0.0, 0.0, 0.0);
  back.normal = {0.0, 0.0, -1.0};
  EXPECT_DOUBLE_EQ(
      (LosModel{e, pd}.gain(geom::ceiling_pose(0.0, 0.0, 1.0), back)), 0.0);
}

TEST(Lambertian, ZeroDistanceIsZero) {
  const auto e = paper_emitter();
  const Photodiode pd;
  const geom::Pose p = geom::ceiling_pose(1.0, 1.0, 1.0);
  EXPECT_DOUBLE_EQ((LosModel{e, pd}.gain(p, p)), 0.0);
}

TEST(Photodiode, BareDiodeGainIsOne) {
  const Photodiode pd;  // n = 1, FoV 90 deg
  EXPECT_NEAR(pd.concentrator_gain(0.0), 1.0, 1e-12);
  EXPECT_NEAR(pd.concentrator_gain(units::deg_to_rad(45.0)), 1.0, 1e-12);
}

TEST(Photodiode, ConcentratorBoostsInsideFovOnly) {
  Photodiode pd;
  pd.concentrator_index = 1.5;
  pd.field_of_view_rad = units::deg_to_rad(60.0);
  const double g_in = pd.concentrator_gain(units::deg_to_rad(30.0));
  EXPECT_NEAR(g_in, 1.5 * 1.5 / std::pow(std::sin(units::deg_to_rad(60.0)), 2),
              1e-12);
  EXPECT_DOUBLE_EQ(pd.concentrator_gain(units::deg_to_rad(70.0)), 0.0);
}

TEST(Geometry, ResolveAnglesOfKnownTriangle) {
  // TX 1 m above, RX offset 1 m horizontally: 45 deg both sides.
  const auto g = resolve_geometry(geom::ceiling_pose(0.0, 0.0, 1.0),
                                  geom::floor_pose(1.0, 0.0, 0.0),
                                  kPi / 2.0);
  EXPECT_NEAR(g.distance_m, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(g.irradiation_angle_rad, kPi / 4.0, 1e-12);
  EXPECT_NEAR(g.incidence_angle_rad, kPi / 4.0, 1e-12);
  EXPECT_TRUE(g.in_field_of_view);
}

TEST(Illuminance, InverseSquareAndCosine) {
  const auto e = paper_emitter();
  const geom::Pose tx = geom::ceiling_pose(0.0, 0.0, 2.0);
  const Lux e1 = illuminance_lux(e, tx, geom::floor_pose(0.0, 0.0, 0.0),
                                 1.0_W, LumensPerWatt{300.0});
  const Lux e2 = illuminance_lux(e, tx, geom::floor_pose(0.0, 0.0, 1.0),
                                 1.0_W, LumensPerWatt{300.0});
  EXPECT_NEAR(e2 / e1, 4.0, 1e-9);  // half the distance, 4x the lux
  EXPECT_GT(e1, Lux{0.0});
}

// Property sweep: LOS gain is monotonically non-increasing in distance
// along the axis, for a range of half-power angles.
class LambertianAngleSweep : public ::testing::TestWithParam<double> {};

TEST_P(LambertianAngleSweep, AxialGainMonotoneInDistance) {
  LambertianEmitter e;
  e.half_power_semi_angle_rad = units::deg_to_rad(GetParam());
  const Photodiode pd;
  double prev = 1e9;
  for (double d = 0.5; d <= 3.0; d += 0.25) {
    const double g = LosModel{e, pd}.gain(geom::ceiling_pose(0.0, 0.0, d),
                                          geom::floor_pose(0.0, 0.0, 0.0));
    EXPECT_LT(g, prev);
    EXPECT_GT(g, 0.0);
    prev = g;
  }
}

TEST_P(LambertianAngleSweep, NarrowerBeamsConcentrateOnAxis) {
  LambertianEmitter narrow;
  narrow.half_power_semi_angle_rad = units::deg_to_rad(GetParam());
  LambertianEmitter wider;
  wider.half_power_semi_angle_rad =
      units::deg_to_rad(GetParam() + 10.0);
  EXPECT_GT(radiant_intensity_factor(narrow, 0.0),
            radiant_intensity_factor(wider, 0.0));
}

INSTANTIATE_TEST_SUITE_P(HalfAngles, LambertianAngleSweep,
                         ::testing::Values(10.0, 15.0, 20.0, 30.0, 45.0,
                                           60.0));

}  // namespace
}  // namespace densevlc::optics
