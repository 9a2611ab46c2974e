#include "sync/timesync.hpp"

#include <algorithm>
#include <cmath>

#include "common/stats.hpp"

namespace densevlc::sync {

PairStart draw_pair_start(SyncMethod method, const TimeSyncConfig& cfg,
                          Rng& rng) {
  PairStart out;
  out.drift_a_ppm = rng.gaussian(0.0, cfg.drift_stddev_ppm);
  out.drift_b_ppm = rng.gaussian(0.0, cfg.drift_stddev_ppm);
  switch (method) {
    case SyncMethod::kNone: {
      // Fire on multicast arrival: exponential delivery tails dominate.
      const auto fire_on_arrival = [&] {
        const double delay = cfg.delivery_jitter_mean_s * rng.exponential();
        const double event = rng.gaussian(0.0, cfg.event_jitter_sigma_s);
        return delay + event;
      };
      out.tx_a_s = fire_on_arrival();
      out.tx_b_s = fire_on_arrival();
      break;
    }
    case SyncMethod::kNtpPtp:
      // Fire at an absolute local timestamp: residual clock offsets.
      out.tx_a_s = ntp_ptp_offset_s(cfg, rng);
      out.tx_b_s = ntp_ptp_offset_s(cfg, rng);
      break;
  }
  return out;
}

double streaming_start_offset_s(const TimeSyncConfig& cfg, Rng& rng) {
  const double delay = cfg.delivery_jitter_mean_s * rng.exponential();
  const double spread = rng.uniform(0.0, cfg.stack_start_spread_s);
  const double event = rng.gaussian(0.0, cfg.event_jitter_sigma_s);
  return delay + spread + event;
}

double ntp_ptp_offset_s(const TimeSyncConfig& cfg, Rng& rng) {
  const double residual = rng.gaussian(0.0, cfg.ntp_ptp_residual_sigma_s);
  const double event = rng.gaussian(0.0, cfg.event_jitter_sigma_s);
  return residual + event;
}

double measure_sync_delay(SyncMethod method, const TimeSyncConfig& cfg,
                          double symbol_rate_hz,
                          std::size_t symbols_per_frame, std::size_t frames,
                          Rng& rng) {
  const double period = 1.0 / symbol_rate_hz;
  std::vector<double> medians;
  medians.reserve(frames);
  std::vector<double> diffs;
  diffs.reserve(symbols_per_frame);
  for (std::size_t f = 0; f < frames; ++f) {
    const PairStart start = draw_pair_start(method, cfg, rng);
    diffs.clear();
    for (std::size_t k = 0; k < symbols_per_frame; ++k) {
      const double edge_a_s =
          start.tx_a_s +
          static_cast<double>(k) * period * (1.0 + start.drift_a_ppm * 1e-6);
      const double edge_b_s =
          start.tx_b_s +
          static_cast<double>(k) * period * (1.0 + start.drift_b_ppm * 1e-6);
      diffs.push_back(std::fabs(edge_a_s - edge_b_s));
    }
    medians.push_back(stats::median(diffs));
  }
  return stats::mean(medians);
}

double max_symbol_rate_for_overlap(double delay_s, double overlap_fraction) {
  if (delay_s <= 0.0) return 0.0;
  // delay <= overlap_fraction * (1 / rate)  =>  rate <= overlap / delay.
  return overlap_fraction / delay_s;
}

}  // namespace densevlc::sync
