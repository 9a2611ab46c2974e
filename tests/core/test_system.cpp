// Tests for the assembled DenseVlcSystem (MAC + sync + data path).
#include "core/system.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "geom/mobility.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::core {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.testbed = core::make_experimental_testbed();
  cfg.mac.epoch_period_s = 0.25;
  cfg.sync_mode = SyncMode::kNlosVlc;
  return cfg;
}

TEST(System, TrueChannelTracksMobility) {
  SystemConfig cfg = fast_config();
  std::vector<std::unique_ptr<geom::MobilityModel>> mob;
  mob.push_back(std::make_unique<geom::WaypointMobility>(
      std::vector<geom::WaypointMobility::Waypoint>{
          {0.0, {0.75, 0.75, 0.0}}, {10.0, {2.25, 2.25, 0.0}}}));
  DenseVlcSystem system{cfg, std::move(mob)};
  const auto h0 = system.true_channel(0.0);
  const auto h10 = system.true_channel(10.0);
  EXPECT_NE(h0.best_tx_for(0), h10.best_tx_for(0));
}

TEST(System, BbbGroupingMatchesPaper) {
  // Sec. 7.1: four TXs per BBB in 2x2 blocks; TX2 & TX8 share a board,
  // TX3 & TX9 share a different one (1-based paper ids).
  auto system =
      DenseVlcSystem::with_static_rxs(fast_config(), {{1.25, 0.75, 0.0}});
  EXPECT_EQ(system.bbb_of(1), system.bbb_of(7));    // TX2, TX8
  EXPECT_EQ(system.bbb_of(2), system.bbb_of(8));    // TX3, TX9
  EXPECT_NE(system.bbb_of(1), system.bbb_of(2));    // different boards
  EXPECT_EQ(system.bbb_of(0), system.bbb_of(1));    // TX1, TX2
}

TEST(System, NlosErrorsCharacterizedAtStartup) {
  auto system =
      DenseVlcSystem::with_static_rxs(fast_config(), {{1.25, 0.75, 0.0}});
  ASSERT_FALSE(system.nlos_error_samples().empty());
  for (double e : system.nlos_error_samples()) {
    EXPECT_LT(std::fabs(e), 5e-6);  // all within a few ADC samples
  }
}

TEST(System, NlosErrorSamplesArePinned) {
  // The NLOS characterization's sample count and first samples, bit for
  // bit: building it on first use must draw exactly the stream the
  // constructor used to.
  const std::size_t count = 32;
  const std::array<std::uint64_t, 4> first_bits{
      0x3E98ED3687091300, 0x3EA13B9117CBE900,
      0x3E93361424D91600, 0x3EA28D44F74EE880};
  auto system =
      DenseVlcSystem::with_static_rxs(fast_config(), {{1.25, 0.75, 0.0}});
  const auto& samples = system.nlos_error_samples();
  ASSERT_EQ(samples.size(), count);
  for (std::size_t i = 0; i < first_bits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(samples[i]), first_bits[i])
        << "sample " << i;
  }
}

TEST(System, OffsetsRespectSyncMode) {
  SystemConfig cfg = fast_config();
  cfg.sync_mode = SyncMode::kNlosVlc;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.25, 0.75, 0.0}});
  Beamspot spot;
  spot.rx = 0;
  spot.txs = {1, 7, 2};  // TX2+TX8 (one BBB), TX3 (another)
  spot.leader = 1;
  Rng rng{1};
  const auto offsets = system.draw_tx_offsets(spot, rng);
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_DOUBLE_EQ(offsets[0], 0.0);  // leader BBB
  EXPECT_DOUBLE_EQ(offsets[1], 0.0);  // same BBB as leader
  EXPECT_LT(std::fabs(offsets[2]), 5e-6);  // NLOS-synced neighbour
}

TEST(System, NoSyncOffsetsAreLarge) {
  SystemConfig cfg = fast_config();
  cfg.sync_mode = SyncMode::kNone;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.25, 0.75, 0.0}});
  Beamspot spot;
  spot.rx = 0;
  spot.txs = {1, 2};  // two BBBs
  spot.leader = 1;
  Rng rng{2};
  double max_spread = 0.0;
  for (int t = 0; t < 30; ++t) {
    const auto offsets = system.draw_tx_offsets(spot, rng);
    max_spread =
        std::max(max_spread, std::fabs(offsets[0] - offsets[1]));
  }
  EXPECT_GT(max_spread, 5e-6);  // multiple microseconds of skew
}

// Unit-mean exponential deviate by the reject-zero loop: -log u, u > 0.
double exponential_by_hand(Rng& rng) {
  double u;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return -std::log(u);
}

TEST(System, TxOffsetsDrawInDocumentedOrder) {
  // Each distinct BBB draws once, in the order its first TX appears in
  // the beamspot. An unsynchronized start draws the delivery delay, the
  // stack start spread, then the event jitter; an NTP/PTP start draws the
  // residual offset, then the event jitter. Replayed by hand on a copy
  // of the stream, every offset must match bit for bit.
  const sync::TimeSyncConfig ts = fast_config().timesync;
  const auto streaming = [&](Rng& hand) {
    const double delay = ts.delivery_jitter_mean_s * exponential_by_hand(hand);
    const double spread = hand.uniform(0.0, ts.stack_start_spread_s);
    const double event = hand.gaussian(0.0, ts.event_jitter_sigma_s);
    return delay + spread + event;
  };
  const auto ntp_ptp = [&](Rng& hand) {
    const double residual = hand.gaussian(0.0, ts.ntp_ptp_residual_sigma_s);
    const double event = hand.gaussian(0.0, ts.event_jitter_sigma_s);
    return residual + event;
  };
  Beamspot spot;
  spot.rx = 0;
  spot.txs = {1, 7, 2};  // TX2+TX8 (the leader's BBB), TX3 (another)
  spot.leader = 1;

  const auto check = [&](SyncMode mode, double t_s, auto expected) {
    SystemConfig cfg = fast_config();
    cfg.sync_mode = mode;
    cfg.faults.add({fault::FaultKind::kSyncPilotLoss, 1.0, 2.0});
    auto system = DenseVlcSystem::with_static_rxs(cfg, {{1.25, 0.75, 0.0}});
    Rng rng{0xD7A};
    for (int trial = 0; trial < 25; ++trial) {
      Rng hand = rng;
      const auto offsets = system.draw_tx_offsets(spot, rng, t_s);
      const std::array<double, 3> want = expected(hand);
      ASSERT_EQ(offsets.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(offsets[i], want[i])
            << "mode " << static_cast<int>(mode) << " trial " << trial
            << " tx " << i;
      }
      EXPECT_EQ(rng.gaussian(), hand.gaussian()) << "trial " << trial;
    }
  };
  check(SyncMode::kNone, 0.0, [&](Rng& hand) {
    const double a = streaming(hand);
    const double b = streaming(hand);
    return std::array<double, 3>{a, a, b};
  });
  check(SyncMode::kNtpPtp, 0.0, [&](Rng& hand) {
    const double a = ntp_ptp(hand);
    const double b = ntp_ptp(hand);
    return std::array<double, 3>{a, a, b};
  });
  // Inside the pilot-loss window the follower BBB free-runs; the leader's
  // BBB draws nothing.
  check(SyncMode::kNlosVlc, 1.5, [&](Rng& hand) {
    return std::array<double, 3>{0.0, 0.0, streaming(hand)};
  });
}

TEST(System, IncrementalProbingMatchesFullWhenAllRxsMove) {
  // Every RX moves between epochs, so every truth column is dirty every
  // epoch — the one regime where incremental probing is guaranteed
  // bit-identical to the full sweep (same noise sub-streams per link).
  const auto make_mobility = [] {
    std::vector<std::unique_ptr<geom::MobilityModel>> mob;
    mob.push_back(std::make_unique<geom::WaypointMobility>(
        std::vector<geom::WaypointMobility::Waypoint>{
            {0.0, {0.75, 0.75, 0.0}}, {10.0, {2.25, 2.25, 0.0}}}));
    mob.push_back(std::make_unique<geom::WaypointMobility>(
        std::vector<geom::WaypointMobility::Waypoint>{
            {0.0, {2.25, 0.75, 0.0}}, {10.0, {0.75, 2.25, 0.0}}}));
    return mob;
  };

  SystemConfig full_cfg = fast_config();
  full_cfg.incremental_probing = false;
  SystemConfig inc_cfg = fast_config();
  inc_cfg.incremental_probing = true;

  DenseVlcSystem full_sys{full_cfg, make_mobility()};
  DenseVlcSystem inc_sys{inc_cfg, make_mobility()};

  for (double t : {0.0, 1.0, 2.0, 3.0}) {
    const auto a = full_sys.run_epoch_analytic(t);
    const auto b = inc_sys.run_epoch_analytic(t);
    ASSERT_EQ(a.throughput_bps.size(), b.throughput_bps.size()) << "t=" << t;
    for (std::size_t k = 0; k < a.throughput_bps.size(); ++k) {
      EXPECT_EQ(a.throughput_bps[k], b.throughput_bps[k])
          << "t=" << t << " rx=" << k;
    }
    EXPECT_EQ(a.power_used_w, b.power_used_w) << "t=" << t;
    EXPECT_EQ(a.txs_assigned, b.txs_assigned) << "t=" << t;
  }
}

TEST(System, IncrementalProbingWithStaticRxsStillServesAll) {
  // Static RXs: after the first epoch no column is ever dirty, so the
  // cached measurements are reused verbatim (the airtime saving). The
  // decisions must stay sane even though no re-probing happens.
  SystemConfig cfg = fast_config();
  cfg.incremental_probing = true;
  auto system = DenseVlcSystem::with_static_rxs(
      cfg, {{0.75, 0.75, 0.0}, {2.25, 2.25, 0.0}});
  for (double t : {0.0, 1.0, 2.0}) {
    const auto report = system.run_epoch_analytic(t);
    ASSERT_EQ(report.throughput_bps.size(), 2u) << "t=" << t;
    for (double thr : report.throughput_bps) EXPECT_GT(thr, 0.0);
  }
}

TEST(System, AnalyticEpochServesAllRxs) {
  auto system = DenseVlcSystem::with_static_rxs(
      fast_config(), scenario::fig7_rx_positions());
  const auto report = system.run_epoch_analytic(0.0);
  ASSERT_EQ(report.throughput_bps.size(), 4u);
  EXPECT_EQ(report.beamspots.size(), 4u);
  EXPECT_GT(report.txs_assigned, 4u);
  for (double t : report.throughput_bps) EXPECT_GT(t, 0.0);
  EXPECT_LE(report.power_used_w, fast_config().power_budget_w + 1e-9);
}

TEST(System, WaveformRunDeliversFramesWithSync) {
  SystemConfig cfg = fast_config();
  cfg.power_budget_w = 0.25;  // small beamspots keep the test fast
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.0, 1.0, 0.0}});
  const auto report = system.run(0.5, 40);
  ASSERT_EQ(report.rx.size(), 1u);
  EXPECT_GT(report.rx[0].frames_sent, 0u);
  EXPECT_GT(report.rx[0].frames_delivered, 0u);
  EXPECT_LT(report.rx[0].per(), 0.2);
  EXPECT_GT(report.throughput_bps(0), 0.0);
}

TEST(System, AcksFollowDeliveries) {
  SystemConfig cfg = fast_config();
  cfg.power_budget_w = 0.25;
  cfg.wifi.loss_probability = 0.0;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, {{1.0, 1.0, 0.0}});
  const auto report = system.run(0.5, 40);
  EXPECT_EQ(report.rx[0].acks_received, report.rx[0].frames_delivered);
}

// Exact per-RX counters of run(1 s, 600 B) on the Fig. 7 scene (the
// paper's testbed, 4 RXs, NLOS sync) for two master seeds. Any change to
// the data path's arithmetic or to the order of its Rng draws moves them.
TEST(System, WaveformRunCountersArePinned) {
  struct Pin {
    std::uint64_t seed;
    // frames_sent, frames_delivered, payload_bits_delivered, acks_received
    std::array<std::array<std::uint64_t, 4>, 4> rx;
  };
  const std::array<Pin, 2> pins{{
      {0xD5EED,
       {{{9, 9, 43200, 9}, {9, 9, 43200, 9}, {9, 9, 43200, 9},
         {9, 9, 43200, 9}}}},
      {7,
       {{{9, 9, 43200, 8}, {9, 9, 43200, 9}, {9, 9, 43200, 9},
         {9, 9, 43200, 8}}}},
  }};
  for (const Pin& pin : pins) {
    SystemConfig cfg;
    cfg.seed = pin.seed;
    auto system =
        DenseVlcSystem::with_static_rxs(cfg, scenario::fig7_rx_positions());
    const auto report = system.run(1.0, 600);
    ASSERT_EQ(report.rx.size(), 4u);
    EXPECT_EQ(report.epochs, 1u);
    for (std::size_t k = 0; k < 4; ++k) {
      const RxStats& rx = report.rx[k];
      EXPECT_EQ((std::array<std::uint64_t, 4>{rx.frames_sent,
                                              rx.frames_delivered,
                                              rx.payload_bits_delivered,
                                              rx.acks_received}),
                pin.rx[k])
          << "seed " << pin.seed << " RX " << k;
    }
  }
}

// Exact per-RX counters of run() under faults and mobility, for both an
// unsynchronized and an NLOS-synced system. Each slot runs at its send
// time plus an Ethernet latency draw, and these counters hold that time
// to the ulp: LED flicker hashes the bit pattern of the slot time into
// every TX's output. RX 0 walks between waypoints, the RX-dropout and
// sync-pilot-loss windows open and close inside slots, and the WiFi
// uplink loses 30% of reports and ACKs.
TEST(System, RunUnderFaultsAndMobilityIsPinned) {
  struct Pin {
    SyncMode mode;
    // frames_sent, frames_delivered, payload_bits_delivered, acks_received
    std::array<std::array<std::uint64_t, 4>, 4> rx;
  };
  const std::array<Pin, 2> pins{{
      {SyncMode::kNone,
       {{{84, 27, 5184, 21}, {84, 57, 10944, 41}, {63, 26, 4992, 16},
         {84, 51, 9792, 38}}}},
      {SyncMode::kNlosVlc,
       {{{84, 73, 14016, 50}, {84, 61, 11712, 44}, {84, 67, 12864, 40},
         {42, 27, 5184, 21}}}},
  }};
  for (const Pin& pin : pins) {
    SystemConfig cfg;
    cfg.sync_mode = pin.mode;
    cfg.mac.epoch_period_s = 0.25;
    cfg.wifi.loss_probability = 0.3;
    for (std::size_t tx = 0; tx < cfg.testbed.grid.count(); ++tx) {
      cfg.faults.add({fault::FaultKind::kLedFlicker, 0.0, 1.0, tx, 0.9});
    }
    cfg.faults.add({fault::FaultKind::kRxDropout, 0.3101, 0.5703, 1, 1.0});
    cfg.faults.add({fault::FaultKind::kSyncPilotLoss, 0.5207, 0.8309, 0, 1.0});
    const auto positions = scenario::fig7_rx_positions();
    std::vector<std::unique_ptr<geom::MobilityModel>> mobility;
    mobility.push_back(std::make_unique<geom::WaypointMobility>(
        std::vector<geom::WaypointMobility::Waypoint>{
            {0.0, positions[0]}, {1.0, {1.40, 1.30, 0.0}}}));
    for (std::size_t k = 1; k < positions.size(); ++k) {
      mobility.push_back(std::make_unique<geom::StaticMobility>(positions[k]));
    }
    DenseVlcSystem system{cfg, std::move(mobility)};
    const auto report = system.run(1.0, 24);
    ASSERT_EQ(report.rx.size(), 4u);
    EXPECT_EQ(report.epochs, 4u);
    for (std::size_t k = 0; k < 4; ++k) {
      const RxStats& rx = report.rx[k];
      EXPECT_EQ(rx.frames_sent, pin.rx[k][0]) << "RX " << k;
      EXPECT_EQ(rx.frames_delivered, pin.rx[k][1]) << "RX " << k;
      EXPECT_EQ(rx.payload_bits_delivered, pin.rx[k][2]) << "RX " << k;
      EXPECT_EQ(rx.acks_received, pin.rx[k][3]) << "RX " << k;
    }
  }
}

}  // namespace
}  // namespace densevlc::core
