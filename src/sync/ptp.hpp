// Two-way PTP offset estimation, simulated at the message level.
//
// The timesync baseline elsewhere in this repo draws *residual* offsets
// from a calibrated distribution; this module derives where those
// residuals come from by actually simulating IEEE-1588-style exchanges:
//
//   t1: master sends SYNC            (master clock)
//   t2: slave receives SYNC          (slave clock)   t2 = t1 + d_ms + o
//   t3: slave sends DELAY_REQ        (slave clock)
//   t4: master receives DELAY_REQ    (master clock)  t4 = t3 + d_sm - o
//
//   offset_estimate = ((t2 - t1) - (t4 - t3)) / 2
//
// which is exact only when the path delays d_ms and d_sm are equal.
// Queueing jitter and asymmetry leave a residual — the few-microsecond
// floor the paper measures over its Ethernet fabric. Averaging multiple
// exchanges (as real PTP daemons do) narrows the jitter component but
// cannot remove asymmetry.
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace densevlc::sync {

/// Network-path characteristics of the PTP exchanges.
struct PtpLinkConfig {
  double jitter_mean_s = 4e-6;       ///< exponential queueing jitter mean,
                                     ///< drawn independently per message
  double asymmetry_s = 1.5e-6;       ///< fixed extra delay on the
                                     ///< master->slave direction (switch
                                     ///< port rates, stack differences)
  double timestamp_jitter_s = 0.3e-6;///< timestamping granularity sigma
};

/// One synchronization round.
struct PtpResult {
  double true_offset_s = 0.0;      ///< the slave clock's actual offset
  double estimated_offset_s = 0.0; ///< what the exchange concluded
  double residual_s = 0.0;         ///< estimate - truth (signed)
};

/// Simulates one two-way exchange for a slave whose clock leads the
/// master by `true_offset_s`.
PtpResult ptp_exchange(double true_offset_s, const PtpLinkConfig& link,
                       Rng& rng);

/// Simulates a full synchronization: `exchanges` rounds, offset estimate
/// = mean of the per-round estimates (what a PTP servo converges to).
/// Returns the *residual* clock error after correction [s, signed].
double ptp_residual_after_sync(double true_offset_s,
                               const PtpLinkConfig& link,
                               std::size_t exchanges, Rng& rng);

/// The analytic residual floor: half the path asymmetry (what averaging
/// cannot remove).
double ptp_asymmetry_floor(const PtpLinkConfig& link);

}  // namespace densevlc::sync
