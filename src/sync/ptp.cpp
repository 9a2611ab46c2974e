#include "sync/ptp.hpp"

namespace densevlc::sync {
namespace {

/// Symmetric propagation + stack delay of each PTP message [s].
constexpr double kBaseDelayS = 50e-6;

double exp_draw(double mean, Rng& rng) {
  if (mean <= 0.0) return 0.0;
  return mean * rng.exponential();
}

}  // namespace

PtpResult ptp_exchange(double true_offset_s, const PtpLinkConfig& link,
                       Rng& rng) {
  PtpResult out;
  out.true_offset_s = true_offset_s;

  // Master->slave (SYNC): asymmetric component applies here.
  const double d_master_slave_s = kBaseDelayS + link.asymmetry_s +
                      exp_draw(link.jitter_mean_s, rng);
  // Slave->master (DELAY_REQ).
  const double d_slave_master_s =
      kBaseDelayS + exp_draw(link.jitter_mean_s, rng);

  auto stamp = [&](double t) {
    return t + rng.gaussian(0.0, link.timestamp_jitter_s);
  };

  const double t1 = 0.0;  // master clock
  const double t2 = stamp(t1 + d_master_slave_s + true_offset_s);  // slave clock
  const double t3 = stamp(t2 + 100e-6);                // slave clock
  const double t4 = stamp(t3 - true_offset_s + d_slave_master_s);  // master clock

  out.estimated_offset_s = ((t2 - t1) - (t4 - t3)) / 2.0;
  out.residual_s = out.estimated_offset_s - true_offset_s;
  return out;
}

double ptp_residual_after_sync(double true_offset_s,
                               const PtpLinkConfig& link,
                               std::size_t exchanges, Rng& rng) {
  if (exchanges == 0) return true_offset_s;
  double acc = 0.0;
  for (std::size_t i = 0; i < exchanges; ++i) {
    acc += ptp_exchange(true_offset_s, link, rng).estimated_offset_s;
  }
  const double corrected = acc / static_cast<double>(exchanges);
  // After applying the correction, the slave's remaining error is the
  // estimation error.
  return corrected - true_offset_s;
}

double ptp_asymmetry_floor(const PtpLinkConfig& link) {
  return link.asymmetry_s / 2.0;
}

}  // namespace densevlc::sync
