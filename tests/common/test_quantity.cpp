// Tests for the Quantity<Dim> layer (common/quantity.hpp) and the units::
// conversion helpers: round trips, arithmetic, and the dimension-derivation
// identities the physics core leans on (Eq. 10: P_C = r * (Isw/2)^2).
#include "common/quantity.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/units.hpp"

namespace densevlc {
namespace {

// ---------------------------------------------------------------------
// units:: conversion helpers round-trip.

TEST(Units, MilliampRoundTrip) {
  EXPECT_DOUBLE_EQ(units::mA(450.0), 0.45);
}

TEST(Units, MilliwattRoundTrip) {
  EXPECT_DOUBLE_EQ(units::to_mW(0.123), 123.0);
  EXPECT_DOUBLE_EQ(units::to_mW(Watts{1.5}), 1500.0);
}

TEST(Units, DegreeRadianRoundTrip) {
  EXPECT_DOUBLE_EQ(units::deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(units::deg_to_rad(90.0), kPi / 2.0);
}

TEST(Units, TimeAndFrequencyHelpers) {
  EXPECT_DOUBLE_EQ(units::us(50.0), 5e-5);
  EXPECT_DOUBLE_EQ(units::to_us(units::us(7.0)), 7.0);
  EXPECT_DOUBLE_EQ(units::to_us(Seconds{1e-3}), 1000.0);
  EXPECT_DOUBLE_EQ(units::MHz(1.0), 1e6);
}

// ---------------------------------------------------------------------
// Quantity arithmetic within one dimension.

TEST(Quantity, SameDimensionArithmetic) {
  Watts p{1.5};
  p += Watts{0.5};
  EXPECT_DOUBLE_EQ(p.value(), 2.0);
  p -= Watts{1.0};
  EXPECT_DOUBLE_EQ(p.value(), 1.0);
  p *= 4.0;
  EXPECT_DOUBLE_EQ(p.value(), 4.0);
  p /= 2.0;
  EXPECT_DOUBLE_EQ(p.value(), 2.0);
  EXPECT_DOUBLE_EQ((Watts{3.0} - Watts{1.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ((-Watts{3.0}).value(), -3.0);
  EXPECT_DOUBLE_EQ((2.0 * Watts{3.0}).value(), 6.0);
  EXPECT_DOUBLE_EQ((Watts{3.0} / 2.0).value(), 1.5);
}

TEST(Quantity, Comparisons) {
  EXPECT_LT(Amperes{0.1}, Amperes{0.2});
  EXPECT_GE(Amperes{0.2}, Amperes{0.2});
  EXPECT_EQ(Lux{300.0}, Lux{300.0});
  EXPECT_NE(Lux{300.0}, Lux{301.0});
}

// ---------------------------------------------------------------------
// Dimension derivation identities.

TEST(Quantity, CurrentSquaredTimesResistanceIsPower) {
  // Eq. 10: per-TX communication power r * (Isw/2)^2.
  const Amperes half_swing{0.45};
  const Ohms r{0.2188};
  const Watts p = half_swing * half_swing * r;
  EXPECT_NEAR(p.value(), 0.2188 * 0.45 * 0.45, 1e-15);
  static_assert(std::is_same_v<decltype(Amperes{} * Ohms{}), Volts>);
  static_assert(std::is_same_v<decltype(Volts{} * Amperes{}), Watts>);
}

TEST(Quantity, SqrtOfPowerOverResistanceIsCurrent) {
  const Watts p{0.0443};  // 0.45^2 * 0.2188
  const Ohms r{0.2188};
  const Amperes i = sqrt(p / r);
  EXPECT_NEAR(i.value(), 0.45, 1e-3);
  static_assert(
      std::is_same_v<decltype(sqrt(AmpsSquaredPerHertz{} * Hertz{})),
                     Amperes>,
      "front-end noise: sqrt(N0 * B) is a current sigma");
}

TEST(Quantity, PowerTimesTimeIsEnergy) {
  const Joules e = Watts{2.0} * Seconds{3.0};
  EXPECT_DOUBLE_EQ(e.value(), 6.0);
}

TEST(Quantity, PhotometryChain) {
  // W -> lm via efficacy, lm -> lx over an area.
  const Lumens flux = Watts{2.0} * kWhiteLedEfficacy;
  EXPECT_DOUBLE_EQ(flux.value(), 600.0);
  const Lux e = flux / SquareMeters{2.0};
  EXPECT_DOUBLE_EQ(e.value(), 300.0);
  static_assert(std::is_same_v<decltype(Lux{} * SquareMeters{}), Lumens>);
}

TEST(Quantity, FullyCancelledRatioIsDouble) {
  static_assert(std::is_same_v<decltype(Watts{} / Watts{}), double>);
  const double efficiency = Watts{1.0} / Watts{4.0};
  EXPECT_DOUBLE_EQ(efficiency, 0.25);
  const double inv = 2.0 / (Seconds{4.0} * Hertz{0.5});
  EXPECT_DOUBLE_EQ(inv, 1.0);
}

TEST(Quantity, DataAxisKeepsBpsDistinctFromHz) {
  static_assert(
      !std::is_same_v<BitsPerSecond, Hertz>,
      "throughput and bandwidth share s^-1 but differ on the data axis");
  static_assert(
      std::is_same_v<decltype(BitsPerSecond{} / Hertz{}), Bits>,
      "bit/s over Hz is spectral efficiency in bits");
  const Bits eff = BitsPerSecond{2e6} / Hertz{1e6};
  EXPECT_DOUBLE_EQ(eff.value(), 2.0);
}

TEST(Quantity, AbsPreservesDimension) {
  EXPECT_DOUBLE_EQ(abs(Amperes{-0.3}).value(), 0.3);
  static_assert(std::is_same_v<decltype(abs(Meters{})), Meters>);
}

// ---------------------------------------------------------------------
// User-defined literals.

TEST(Quantity, LiteralsProduceBaseUnits) {
  EXPECT_DOUBLE_EQ((36.0_mA).value(), 0.036);
  EXPECT_DOUBLE_EQ((450.0_mA).value(), (0.45_A).value());
  EXPECT_DOUBLE_EQ((2.0_W).value(), 2.0);
  EXPECT_DOUBLE_EQ((250.0_mW).value(), 0.25);
  EXPECT_DOUBLE_EQ((1.0_MHz).value(), 1e6);
  EXPECT_DOUBLE_EQ((200.0_kHz).value(), 2e5);
  EXPECT_DOUBLE_EQ((0.8_m).value(), 0.8);
  EXPECT_DOUBLE_EQ((800.0_mm).value(), 0.8);
  EXPECT_DOUBLE_EQ((5.0_ms).value(), 5e-3);
  EXPECT_DOUBLE_EQ((300.0_lx).value(), 300.0);
  EXPECT_DOUBLE_EQ((1.5_Mbps).value(), 1.5e6);
  EXPECT_DOUBLE_EQ((0.2188_Ohm).value(), 0.2188);
}

TEST(Quantity, LiteralsComposeWithUnitsHelpers) {
  // Literal and helper agree: 450 mA and 5 ms both ways.
  EXPECT_DOUBLE_EQ((450.0_mA).value(), units::mA(450.0));
  EXPECT_DOUBLE_EQ(units::to_us(5.0_ms), 5000.0);
}

// The wrapper adds no storage: a Quantity is exactly one double.
static_assert(sizeof(Watts) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Watts>);

}  // namespace
}  // namespace densevlc
