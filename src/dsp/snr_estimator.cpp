#include "dsp/snr_estimator.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace densevlc::dsp {

std::optional<SnrEstimate> m2m4_snr(std::span<const double> samples) {
  if (samples.size() < 4) return std::nullopt;
  double m2 = 0.0;
  double m4 = 0.0;
  for (double x : samples) {
    const double x2 = x * x;
    m2 += x2;
    m4 += x2 * x2;
  }
  const auto n = static_cast<double>(samples.size());
  m2 /= n;
  m4 /= n;

  const double disc = 3.0 * m2 * m2 - m4;
  if (disc <= 0.0) return std::nullopt;
  const double s = std::sqrt(disc / 2.0);
  const double noise = m2 - s;
  if (noise <= 0.0 || s <= 0.0) return std::nullopt;

  SnrEstimate est;
  est.signal_power = s;
  est.noise_power = noise;
  est.snr_linear = s / noise;
  est.snr_db = 10.0 * std::log10(est.snr_linear);
  DVLC_ASSERT(est.signal_power > 0.0 && est.noise_power > 0.0,
              "M2M4 estimate must yield positive signal and noise powers");
  return est;
}

}  // namespace densevlc::dsp
