// Software time-synchronization baselines (paper Sec. 6.1, Fig. 12,
// Table 4).
//
// The paper evaluates starting joint transmissions by absolute local
// timestamps under three regimes:
//   - no synchronization: TXs fire when the multicast frame arrives, so
//     the pairwise error is dominated by network-delivery and OS jitter;
//   - NTP + PTP: a coarse NTP correction plus PTP between TXs leaves a
//     few-microsecond residual clock offset;
//   - (NLOS VLC sync, Sec. 6.2, lives in nlos_sync.hpp).
//
// The measurement harness reproduces the paper's method: two TXs transmit
// the same Manchester frame, the edge-time difference of every
// "synchronized" symbol pair is recorded, the median over the frame is
// taken, and medians are averaged over repeated frames.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace densevlc::sync {

/// Which baseline prepares the TX clocks before a joint transmission.
enum class SyncMethod {
  kNone,    ///< fire on multicast arrival
  kNtpPtp,  ///< absolute-time fire after NTP/PTP correction
};

/// Calibration of the baselines. Defaults reproduce the medians of paper
/// Table 4 (no sync 10.040 us, NTP/PTP 4.565 us).
struct TimeSyncConfig {
  // No-sync: per-TX multicast delivery delay = base + Exp(mean_jitter).
  // |Exp(m) - Exp(m)| is again Exp(m), so the *expected* pair error —
  // what measure_sync_delay() reports after averaging per-frame medians —
  // equals m. Calibrated to Table 4's 10.040 us.
  double delivery_jitter_mean_s = 10.0e-6;
  // NTP/PTP residual clock offset sigma per TX. The expected pair error
  // is sqrt(2/pi) * sqrt(2 (sigma^2 + jitter^2)); 4.0 us reproduces
  // Table 4's 4.565 us.
  double ntp_ptp_residual_sigma_s = 4.0e-6;
  // OS/PRU handoff jitter applied per transmission event in both regimes.
  double event_jitter_sigma_s = 0.8e-6;
  // Unsynchronized *streaming* (Table 5's "no sync" row): with no common
  // time reference at all, each BBB starts its frame wherever its
  // userspace -> PRU pipeline happens to land — a uniform spread of
  // hundreds of microseconds, i.e. many chips. (Table 4 / Fig. 12 measure
  // the tighter absolute-timestamp trigger path instead.)
  double stack_start_spread_s = 150e-6;
  // Oscillator drift population (affects symbol spacing inside a frame).
  double drift_stddev_ppm = 10.0;
};

/// Start-time error realization for a pair of TXs about to transmit the
/// same frame "simultaneously". Values are true-time offsets from the
/// intended common start [s].
struct PairStart {
  double tx_a_s = 0.0;
  double tx_b_s = 0.0;
  double drift_a_ppm = 0.0;
  double drift_b_ppm = 0.0;
};

/// Draws the start-time errors for one joint frame under `method`: both
/// drifts, then TX A's start, then TX B's. A kNone start draws its
/// delivery delay, then its event jitter; a kNtpPtp start is
/// ntp_ptp_offset_s. This draw order is part of the determinism
/// contract.
PairStart draw_pair_start(SyncMethod method, const TimeSyncConfig& cfg,
                          Rng& rng);

/// Start offset of a TX streaming with no time reference at all [s]:
/// delivery delay (delivery_jitter_mean_s * Exp(1)), then
/// uniform(0, stack_start_spread_s), then gaussian(0,
/// event_jitter_sigma_s), drawn in that order and summed left to right.
/// The order is part of the determinism contract.
double streaming_start_offset_s(const TimeSyncConfig& cfg, Rng& rng);

/// Start offset of a TX firing at an NTP/PTP timestamp [s]: gaussian(0,
/// ntp_ptp_residual_sigma_s), then gaussian(0, event_jitter_sigma_s),
/// drawn in that order. The order is part of the determinism contract.
double ntp_ptp_offset_s(const TimeSyncConfig& cfg, Rng& rng);

/// Paper's measurement: median over `symbols_per_frame` of the absolute
/// edge-time difference between corresponding symbols of the two TXs
/// (each symbol edge k of TX t falls at start_t + k * T * (1 + drift_t)),
/// averaged over `frames` frames. Returns seconds.
double measure_sync_delay(SyncMethod method, const TimeSyncConfig& cfg,
                          double symbol_rate_hz, std::size_t symbols_per_frame,
                          std::size_t frames, Rng& rng);

/// Maximum symbol rate [Hz] at which the measured delay stays below
/// `overlap_fraction` of a symbol period (the paper's 10% criterion that
/// yields 14.28 Ksymbols/s for NTP/PTP).
double max_symbol_rate_for_overlap(double delay_s, double overlap_fraction);

}  // namespace densevlc::sync
