// Tests for the radix-2 FFT.
#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace densevlc::dsp {
namespace {

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(12);
  EXPECT_THROW(fft(data), std::invalid_argument);
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(96));
}

TEST(Fft, DeltaHasFlatSpectrum) {
  std::vector<Complex> data(16, Complex{0.0, 0.0});
  data[0] = {1.0, 0.0};
  fft(data);
  for (const auto& c : data) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsOnItsBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<Complex> data(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double phase = 2.0 * kPi * static_cast<double>(tone * t) /
                         static_cast<double>(n);
    data[t] = {std::cos(phase), 0.0};
  }
  fft(data);
  // A real cosine splits between bins `tone` and `n - tone`.
  EXPECT_NEAR(std::abs(data[tone]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - tone]), static_cast<double>(n) / 2.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != tone && k != n - tone) {
      EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-9) << "bin " << k;
    }
  }
}

TEST(Fft, RoundTripIsIdentity) {
  Rng rng{99};
  std::vector<Complex> data(128);
  for (auto& c : data) c = {rng.gaussian(), rng.gaussian()};
  const auto original = data;
  fft(data);
  ifft(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng{100};
  std::vector<Complex> data(256);
  double time_energy = 0.0;
  for (auto& c : data) {
    c = {rng.gaussian(), rng.gaussian()};
    time_energy += std::norm(c);
  }
  fft(data);
  double freq_energy = 0.0;
  for (const auto& c : data) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * 256.0, time_energy * 1e-9);
}

TEST(Fft, LinearityHolds) {
  Rng rng{101};
  const std::size_t n = 32;
  std::vector<Complex> a(n);
  std::vector<Complex> b(n);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.gaussian(), rng.gaussian()};
    b[i] = {rng.gaussian(), rng.gaussian()};
    sum[i] = a[i] + 2.0 * b[i];
  }
  fft(a);
  fft(b);
  fft(sum);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex expect = a[i] + 2.0 * b[i];
    EXPECT_NEAR(std::abs(sum[i] - expect), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace densevlc::dsp
