// Tests for the NTP/PTP and no-sync baselines (paper Fig. 12, Table 4).
#include "sync/timesync.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace densevlc::sync {
namespace {

TEST(TimeSync, NtpPtpBeatsNoSync) {
  // Fig. 12's core claim: NTP/PTP improves the delay by at least ~2x.
  const TimeSyncConfig cfg;
  Rng rng{1};
  const double none =
      measure_sync_delay(SyncMethod::kNone, cfg, 50e3, 500, 400, rng);
  const double ptp =
      measure_sync_delay(SyncMethod::kNtpPtp, cfg, 50e3, 500, 400, rng);
  EXPECT_GT(none, 1.8 * ptp);
}

TEST(TimeSync, MediansMatchTable4Calibration) {
  // Table 4: no sync 10.040 us, NTP/PTP 4.565 us. Allow 25% tolerance on
  // the calibrated model.
  const TimeSyncConfig cfg;
  Rng rng{2};
  const double none =
      measure_sync_delay(SyncMethod::kNone, cfg, 100e3, 1000, 200, rng);
  const double ptp =
      measure_sync_delay(SyncMethod::kNtpPtp, cfg, 100e3, 1000, 200, rng);
  EXPECT_NEAR(none, 10.0e-6, 2.5e-6);
  EXPECT_NEAR(ptp, 4.6e-6, 1.2e-6);
}

TEST(TimeSync, DelayRoughlyFlatAcrossSymbolRates) {
  // The residual is clock-driven, not symbol-driven: across 5-60 Ksym/s
  // the measured delay varies by less than 3x (Fig. 12 shows flat curves
  // on a log axis).
  const TimeSyncConfig cfg;
  Rng rng{3};
  double lo = 1e9;
  double hi = 0.0;
  for (double rate : {5e3, 15e3, 30e3, 60e3}) {
    const double d =
        measure_sync_delay(SyncMethod::kNtpPtp, cfg, rate, 500, 80, rng);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(hi / lo, 3.0);
}

TEST(TimeSync, PairStartDrawsHaveDrift) {
  const TimeSyncConfig cfg;
  Rng rng{4};
  bool saw_nonzero_drift = false;
  for (int i = 0; i < 50; ++i) {
    const auto p = draw_pair_start(SyncMethod::kNtpPtp, cfg, rng);
    saw_nonzero_drift = saw_nonzero_drift || p.drift_a_ppm != 0.0;
  }
  EXPECT_TRUE(saw_nonzero_drift);
}

TEST(TimeSync, NoSyncDelaysAreNonNegativeDeliveryTimes) {
  const TimeSyncConfig cfg;
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    const auto p = draw_pair_start(SyncMethod::kNone, cfg, rng);
    // Delivery delays are exponential (positive) with small gaussian
    // perturbation — strongly negative values must not occur.
    EXPECT_GT(p.tx_a_s, -5.0 * cfg.event_jitter_sigma_s);
    EXPECT_GT(p.tx_b_s, -5.0 * cfg.event_jitter_sigma_s);
  }
}

TEST(TimeSync, PairStartDrawsInDocumentedOrder) {
  // Both drifts first; then per TX, A before B: the delivery delay and
  // the event jitter (kNone), or the residual offset and the event
  // jitter (kNtpPtp). Replayed by hand on a copy of the stream, every
  // field must match bit for bit.
  const TimeSyncConfig cfg;
  const auto exponential_by_hand = [](Rng& rng) {
    double u;
    do {
      u = rng.uniform();
    } while (u <= 0.0);
    return -std::log(u);
  };
  Rng rng{6};
  for (int trial = 0; trial < 50; ++trial) {
    for (const SyncMethod method : {SyncMethod::kNone, SyncMethod::kNtpPtp}) {
      Rng hand = rng;
      const PairStart p = draw_pair_start(method, cfg, rng);
      const double drift_a = hand.gaussian(0.0, cfg.drift_stddev_ppm);
      const double drift_b = hand.gaussian(0.0, cfg.drift_stddev_ppm);
      double start[2];
      for (double& s : start) {
        const double first =
            method == SyncMethod::kNone
                ? cfg.delivery_jitter_mean_s * exponential_by_hand(hand)
                : hand.gaussian(0.0, cfg.ntp_ptp_residual_sigma_s);
        const double event = hand.gaussian(0.0, cfg.event_jitter_sigma_s);
        s = first + event;
      }
      EXPECT_EQ(p.drift_a_ppm, drift_a) << "trial " << trial;
      EXPECT_EQ(p.drift_b_ppm, drift_b) << "trial " << trial;
      EXPECT_EQ(p.tx_a_s, start[0]) << "trial " << trial;
      EXPECT_EQ(p.tx_b_s, start[1]) << "trial " << trial;
      EXPECT_EQ(rng.gaussian(), hand.gaussian()) << "trial " << trial;
    }
  }
}

TEST(TimeSync, MaxSymbolRateCriterion) {
  // Paper: with <=10% symbol overlap and the NTP/PTP delay, the max rate
  // is 14.28 Ksymbols/s — i.e. overlap / delay with delay ~7 us.
  EXPECT_NEAR(max_symbol_rate_for_overlap(7e-6, 0.10), 14.28e3, 0.3e3);
  EXPECT_DOUBLE_EQ(max_symbol_rate_for_overlap(0.0, 0.1), 0.0);
}

TEST(TimeSync, DeterministicGivenSeed) {
  const TimeSyncConfig cfg;
  Rng a{42};
  Rng b{42};
  EXPECT_DOUBLE_EQ(
      measure_sync_delay(SyncMethod::kNone, cfg, 50e3, 200, 20, a),
      measure_sync_delay(SyncMethod::kNone, cfg, 50e3, 200, 20, b));
}

}  // namespace
}  // namespace densevlc::sync
