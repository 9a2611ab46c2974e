// Tests for the M2M4 SNR estimator (paper Sec. 7.2).
#include "dsp/snr_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace densevlc::dsp {
namespace {

/// Builds n antipodal +-amplitude symbols in gaussian noise.
std::vector<double> make_samples(std::size_t n, double amplitude,
                                 double noise_sigma, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> v(n);
  for (double& s : v) {
    const double symbol = rng.bernoulli(0.5) ? amplitude : -amplitude;
    s = symbol + rng.gaussian(0.0, noise_sigma);
  }
  return v;
}

TEST(M2M4, TooFewSamplesIsNullopt) {
  const std::vector<double> v{1.0, -1.0, 1.0};
  EXPECT_FALSE(m2m4_snr(v).has_value());
}

TEST(M2M4, CleanAntipodalIsNullopt) {
  // Zero noise makes N = M2 - S = 0: no valid estimate (division by zero
  // territory); the estimator must refuse rather than return infinity.
  const auto v = make_samples(1000, 1.0, 0.0, 5);
  EXPECT_FALSE(m2m4_snr(v).has_value());
}

TEST(M2M4, RecoversKnownSnr) {
  // True SNR = A^2 / sigma^2. Test across a range.
  struct Case {
    double amplitude, sigma;
  };
  for (const Case c : {Case{1.0, 0.5}, Case{1.0, 0.25}, Case{2.0, 1.0}}) {
    const auto v = make_samples(200000, c.amplitude, c.sigma, 42);
    const auto est = m2m4_snr(v);
    ASSERT_TRUE(est.has_value());
    const double true_snr_db =
        10.0 * std::log10(c.amplitude * c.amplitude / (c.sigma * c.sigma));
    EXPECT_NEAR(est->snr_db, true_snr_db, 0.3)
        << "A=" << c.amplitude << " sigma=" << c.sigma;
  }
}

TEST(M2M4, PowerDecompositionSumsToM2) {
  const auto v = make_samples(100000, 1.0, 0.4, 7);
  const auto est = m2m4_snr(v);
  ASSERT_TRUE(est.has_value());
  double m2 = 0.0;
  for (double s : v) m2 += s * s;
  m2 /= static_cast<double>(v.size());
  EXPECT_NEAR(est->signal_power + est->noise_power, m2, 1e-12);
}

TEST(M2M4, PureNoiseRejectedOrVeryLow) {
  Rng rng{9};
  std::vector<double> v(50000);
  for (double& s : v) s = rng.gaussian(0.0, 1.0);
  const auto est = m2m4_snr(v);
  // Gaussian noise has kurtosis 3: the discriminant 3 M2^2 - M4 hovers at
  // zero, so the estimate either fails or reports very low SNR.
  if (est) {
    EXPECT_LT(est->snr_db, 0.0);
  }
}

// Property sweep: estimator bias stays under 0.5 dB from 3 dB to 20 dB.
class SnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(SnrSweep, LowBiasAcrossOperatingRange) {
  const double snr_db = GetParam();
  const double amplitude = 1.0;
  const double sigma = amplitude / std::pow(10.0, snr_db / 20.0);
  const auto v = make_samples(300000, amplitude, sigma, 1234);
  const auto est = m2m4_snr(v);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->snr_db, snr_db, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Levels, SnrSweep,
                         ::testing::Values(3.0, 6.0, 10.0, 13.0, 16.0,
                                           20.0));

}  // namespace
}  // namespace densevlc::dsp
