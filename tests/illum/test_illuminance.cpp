// Tests for the illuminance map and ISO 8995-1 checks (paper Fig. 5).
#include "illum/illuminance_map.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "core/testbed.hpp"
#include "scenario/compile.hpp"

namespace densevlc::illum {
namespace {

struct Fixture {
  core::Testbed tb = core::make_simulation_testbed();
  IlluminanceMap map{tb.room,    tb.tx_poses(), tb.emitter, tb.led,
                     Meters{0.8}, 41,           kWhiteLedEfficacy};
};

TEST(Illuminance, PaperGridMeetsIsoInAreaOfInterest) {
  Fixture f;
  const auto stats = f.map.area_of_interest_stats(Meters{2.2});
  // Paper: 564 lux average, 74% uniformity. Allow model tolerance.
  EXPECT_GT(stats.average_lux, 500.0);
  EXPECT_LT(stats.average_lux, 700.0);
  EXPECT_GT(stats.uniformity, 0.70);
  EXPECT_TRUE(f.map.satisfies(IsoRequirement{}, Meters{2.2}));
}

TEST(Illuminance, FullRoomIsLessUniformThanCore) {
  Fixture f;
  const auto core = f.map.area_of_interest_stats(Meters{2.2});
  const auto full = f.map.area_of_interest_stats(Meters{3.0});
  EXPECT_LT(full.uniformity, core.uniformity);
  EXPECT_LT(full.min_lux, core.min_lux);
}

TEST(Illuminance, CenterBrighterThanCorner) {
  Fixture f;
  EXPECT_GT(f.map.evaluate(Meters{1.5}, Meters{1.5}),
            f.map.evaluate(Meters{0.05}, Meters{0.05}));
}

TEST(Illuminance, SymmetricUnderGridSymmetry) {
  Fixture f;
  // The centered 6x6 grid is symmetric about the room center.
  EXPECT_NEAR(f.map.evaluate(Meters{1.0}, Meters{1.2}).value(),
              f.map.evaluate(Meters{2.0}, Meters{1.8}).value(), 1e-6);
  EXPECT_NEAR(f.map.evaluate(Meters{0.7}, Meters{1.5}).value(),
              f.map.evaluate(Meters{2.3}, Meters{1.5}).value(), 1e-6);
}

TEST(Illuminance, MapGridMatchesDirectEvaluation) {
  Fixture f;
  // Raster point (ix=20, iy=20) of a 41-point grid is the room center.
  EXPECT_NEAR(f.map.at(20, 20).value(),
              f.map.evaluate(Meters{1.5}, Meters{1.5}).value(), 1e-9);
}

TEST(Illuminance, RasterIsPinned) {
  // FNV-1a over the bit patterns of the fixture's 41x41 raster, row by
  // row. Any change to the raster loop or the LOS photometry moves it.
  Fixture f;
  std::vector<double> flat;
  for (std::size_t iy = 0; iy < 41; ++iy) {
    for (std::size_t ix = 0; ix < 41; ++ix) {
      flat.push_back(f.map.at(ix, iy).value());
    }
  }
  EXPECT_EQ(scenario::hash_doubles(flat), 651447674749534550ULL);
}

TEST(Illuminance, ScalesWithBiasDrive) {
  const auto tb = core::make_simulation_testbed();
  const optics::LedModel dim{tb.led.electrical(),
                             optics::LedOperatingPoint{0.2, 0.4}};
  const IlluminanceMap dim_map{tb.room,     tb.tx_poses(), tb.emitter, dim,
                               Meters{0.8}, 21,           kWhiteLedEfficacy};
  const IlluminanceMap bright_map{tb.room,     tb.tx_poses(), tb.emitter,
                                  tb.led,      Meters{0.8},   21,
                                  kWhiteLedEfficacy};
  EXPECT_LT(dim_map.area_of_interest_stats(Meters{2.2}).average_lux,
            bright_map.area_of_interest_stats(Meters{2.2}).average_lux);
}

TEST(Illuminance, EmptyAoiReturnsZeroSamples) {
  Fixture f;
  const auto stats = f.map.area_of_interest_stats(Meters{0.0});
  // A zero-size AoI can still catch the single center raster point.
  EXPECT_LE(stats.samples, 1u);
}

TEST(Illuminance, BiasSizingHitsTarget) {
  const auto tb = core::make_simulation_testbed();
  const Amperes bias = size_bias_for_average_lux(
      tb.room, tb.tx_poses(), tb.emitter, tb.led.electrical(), Meters{0.8},
      Meters{2.2}, Lux{500.0}, kWhiteLedEfficacy);
  EXPECT_GT(bias, Amperes{0.0});
  EXPECT_LT(bias, Amperes{1.5});
  // Verify the sized bias actually reaches the target.
  const optics::LedModel sized{
      tb.led.electrical(),
      optics::LedOperatingPoint{bias.value(), 2.0 * bias.value()}};
  const IlluminanceMap map{tb.room,     tb.tx_poses(), tb.emitter, sized,
                           Meters{0.8}, 31,            kWhiteLedEfficacy};
  EXPECT_NEAR(map.area_of_interest_stats(Meters{2.2}).average_lux, 500.0,
              10.0);
}

TEST(Illuminance, BiasSizingClampsAtMax) {
  const auto tb = core::make_simulation_testbed();
  const Amperes bias = size_bias_for_average_lux(
      tb.room, tb.tx_poses(), tb.emitter, tb.led.electrical(), Meters{0.8},
      Meters{2.2}, Lux{1e9}, kWhiteLedEfficacy, Amperes{1.0});
  EXPECT_DOUBLE_EQ(bias.value(), 1.0);
}

TEST(Illuminance, CommunicationDoesNotChangeBrightness) {
  // Manchester symmetry: average current is Ib in both modes, so the map
  // (driven by Ib) is by construction identical. Assert the invariant the
  // design relies on: average of the high/low currents equals the bias.
  const double ib = 0.45;
  const double isw = 0.9;
  EXPECT_DOUBLE_EQ(((ib + isw / 2) + (ib - isw / 2)) / 2.0, ib);
}

}  // namespace
}  // namespace densevlc::illum
