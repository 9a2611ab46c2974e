// Tests for the quantizing ADC model.
#include "dsp/adc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace densevlc::dsp {
namespace {

// Reference: quantization by std::lround, which quantize() must equal.
std::uint32_t lround_quantize(const AdcConfig& cfg, double volts) {
  const double clipped = std::clamp(volts, cfg.min_volts, cfg.max_volts);
  const double normalized =
      (clipped - cfg.min_volts) / (cfg.max_volts - cfg.min_volts);
  const auto max_code =
      static_cast<std::uint32_t>((std::uint64_t{1} << cfg.bits) - 1);
  return static_cast<std::uint32_t>(
      std::lround(normalized * static_cast<double>(max_code)));
}

TEST(Adc, QuantizeMatchesLround) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const AdcConfig& cfg :
       {AdcConfig{1e6, 12, 0.0, 3.3}, AdcConfig{1e6, 8, 0.0, 1.0},
        AdcConfig{1e6, 10, -1.2, 2.1}, AdcConfig{1e6, 16, 0.0, 5.0}}) {
    const Adc adc{cfg};
    std::vector<double> probes{cfg.min_volts, cfg.max_volts, -kInf, kInf,
                               cfg.min_volts - 1.0, cfg.max_volts + 1.0,
                               -1e300, 1e300};
    // Every bin edge (the voltage of code k + 1/2), and both endpoints,
    // each +-1 and +-2 ulp.
    const auto max_code = (std::uint64_t{1} << cfg.bits) - 1;
    const double span = cfg.max_volts - cfg.min_volts;
    for (std::uint64_t k = 0; k <= max_code; ++k) {
      probes.push_back(cfg.min_volts + (static_cast<double>(k) + 0.5) /
                                           static_cast<double>(max_code) *
                                           span);
    }
    Rng rng{cfg.bits};
    for (int i = 0; i < 100000; ++i) {
      probes.push_back(rng.uniform(cfg.min_volts - 0.5, cfg.max_volts + 0.5));
    }
    for (std::size_t i = 0, n = probes.size(); i < n; ++i) {
      double down = probes[i];
      double up = probes[i];
      for (int step = 0; step < 2; ++step) {
        down = std::nextafter(down, -kInf);
        up = std::nextafter(up, kInf);
        probes.push_back(down);
        probes.push_back(up);
      }
    }
    for (const double v : probes) {
      ASSERT_EQ(adc.quantize(v), lround_quantize(cfg, v))
          << "bits " << cfg.bits << " v " << v;
    }
    EXPECT_EQ(adc.quantize(std::numeric_limits<double>::quiet_NaN()), 0u);
  }
}

TEST(Adc, RoundTripIntoMatchesQuantize) {
  // The block round trip (on whichever SIMD leg the process runs) against
  // the per-sample body, bit for bit, at the special values, around a bin
  // edge and over every tail length.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const AdcConfig& cfg :
       {AdcConfig{}, AdcConfig{1e6, 8, 0.5, 2.5},
        AdcConfig{1e6, 16, -1.2, 2.1}}) {
    const Adc adc{cfg};
    const double edge = cfg.min_volts + 0.5 * adc.lsb();
    const std::vector<double> probes{
        -kInf, kInf, std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0,
        cfg.min_volts, cfg.max_volts, cfg.min_volts - 1.0,
        cfg.max_volts + 1.0, edge, std::nextafter(edge, -kInf),
        std::nextafter(edge, kInf), 1.234, -1e300};
    for (const double offset : {0.0, 1.65}) {
      for (std::size_t len = 0; len <= probes.size(); ++len) {
        std::vector<double> got(probes.begin(), probes.begin() + len);
        adc.round_trip_into(got, offset);
        for (std::size_t i = 0; i < len; ++i) {
          const double expect =
              adc.code_to_volts(adc.quantize(probes[i] + offset)) - offset;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(expect))
              << "bits " << cfg.bits << " v " << probes[i];
        }
      }
    }
  }
}

TEST(Adc, QuantizeEndpoints) {
  Adc adc{AdcConfig{1e6, 12, 0.0, 3.3}};
  EXPECT_EQ(adc.quantize(0.0), 0u);
  EXPECT_EQ(adc.quantize(3.3), 4095u);
}

TEST(Adc, ClipsOutOfRange) {
  Adc adc{AdcConfig{1e6, 12, 0.0, 3.3}};
  EXPECT_EQ(adc.quantize(-1.0), 0u);
  EXPECT_EQ(adc.quantize(10.0), 4095u);
}

TEST(Adc, RoundTripWithinHalfLsb) {
  Adc adc{AdcConfig{1e6, 12, 0.0, 3.3}};
  for (double v = 0.0; v <= 3.3; v += 0.123) {
    const double rt = adc.code_to_volts(adc.quantize(v));
    EXPECT_NEAR(rt, v, adc.lsb() / 2.0 + 1e-12);
  }
}

TEST(Adc, LsbMatchesResolution) {
  Adc adc8{AdcConfig{1e6, 8, 0.0, 2.55}};
  EXPECT_NEAR(adc8.lsb(), 0.01, 1e-12);
}

TEST(Adc, CodeToVoltsClampsOverflowCodes) {
  Adc adc{AdcConfig{1e6, 8, 0.0, 1.0}};
  EXPECT_DOUBLE_EQ(adc.code_to_volts(255), 1.0);
  EXPECT_DOUBLE_EQ(adc.code_to_volts(9999), 1.0);
}

TEST(Adc, DigitizeResamplesDuration) {
  Adc adc{AdcConfig{1e6, 12, 0.0, 3.3}};
  Waveform analog;
  analog.sample_rate_hz = 4e6;  // TX oversampled 4x
  analog.samples.assign(4000, 1.0);  // 1 ms
  const auto codes = adc.digitize(analog);
  EXPECT_EQ(codes.size(), 1000u);  // 1 ms at 1 Msps
}

TEST(Adc, DigitizeZeroOrderHold) {
  Adc adc{AdcConfig{1000.0, 12, 0.0, 1.0}};
  Waveform analog;
  analog.sample_rate_hz = 500.0;  // upsampling case: hold values
  analog.samples = {0.0, 1.0};
  const auto out = adc.digitize_to_voltage(analog);
  ASSERT_EQ(out.samples.size(), 4u);
  EXPECT_NEAR(out.samples[0], 0.0, adc.lsb());
  EXPECT_NEAR(out.samples[1], 0.0, adc.lsb());
  EXPECT_NEAR(out.samples[2], 1.0, adc.lsb());
  EXPECT_NEAR(out.samples[3], 1.0, adc.lsb());
}

TEST(Adc, EmptyInputGivesEmptyOutput) {
  Adc adc{AdcConfig{}};
  EXPECT_TRUE(adc.digitize(Waveform{}).empty());
}

}  // namespace
}  // namespace densevlc::dsp
