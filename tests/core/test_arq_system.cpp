// Integration tests: stop-and-wait ARQ over the full waveform data path.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/system.hpp"
#include "core/testbed.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::core {
namespace {

SystemConfig fast_config() {
  SystemConfig cfg;
  cfg.testbed = core::make_experimental_testbed();
  cfg.mac.epoch_period_s = 5.0;  // one measurement for the whole run
  cfg.power_budget_w = 0.25;
  return cfg;
}

// segments_offered, _delivered, _dropped, transmissions, duplicates,
// give_ups of each RX.
using Counters = std::array<std::array<std::uint64_t, 6>, 4>;

void expect_counters(const DenseVlcSystem::ArqReport& report,
                     const Counters& pins) {
  ASSERT_EQ(report.rx.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const auto& rx = report.rx[k];
    EXPECT_EQ((std::array<std::uint64_t, 6>{
                  rx.segments_offered, rx.segments_delivered,
                  rx.segments_dropped, rx.transmissions, rx.duplicates,
                  rx.give_ups}),
              pins[k])
        << "RX " << k;
  }
}

TEST(ArqSystem, DeliversAllSegmentsOnCleanLink) {
  SystemConfig cfg = fast_config();
  cfg.wifi.loss_probability = 0.0;
  auto system = DenseVlcSystem::with_static_rxs(cfg, {{1.0, 1.0, 0.0}});
  const auto report = system.run_arq(2.0, 40, 8);
  ASSERT_EQ(report.rx.size(), 1u);
  EXPECT_EQ(report.rx[0].segments_delivered, 8u);
  EXPECT_EQ(report.rx[0].segments_dropped, 0u);
  EXPECT_EQ(report.rx[0].duplicates, 0u);
  EXPECT_GT(report.goodput_bps(0, 40), 0.0);
}

TEST(ArqSystem, LostAcksCauseRetransmissionsNotLoss) {
  SystemConfig cfg = fast_config();
  cfg.wifi.loss_probability = 0.3;  // very lossy uplink
  auto system = DenseVlcSystem::with_static_rxs(cfg, {{1.0, 1.0, 0.0}});
  const auto report = system.run_arq(3.0, 40, 8, /*max_attempts=*/6);
  // Everything still arrives (the downlink is clean)...
  EXPECT_EQ(report.rx[0].segments_delivered +
                report.rx[0].segments_dropped,
            8u);
  EXPECT_GE(report.rx[0].segments_delivered, 7u);
  // ...at the cost of retransmissions, which the receiver deduplicates.
  EXPECT_GT(report.rx[0].transmissions, 8u);
  EXPECT_EQ(report.rx[0].duplicates,
            report.rx[0].transmissions - 8u -
                report.rx[0].segments_dropped * 0);  // every extra TX was
                                                     // a duplicate here
}

TEST(ArqSystem, MultiRxSharesTheAir) {
  SystemConfig cfg = fast_config();
  cfg.power_budget_w = 1.2;
  cfg.wifi.loss_probability = 0.0;
  auto system = DenseVlcSystem::with_static_rxs(
      cfg, {{0.75, 0.75, 0.0}, {2.25, 2.25, 0.0}});  // well separated
  const auto report = system.run_arq(2.5, 40, 5);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(report.rx[k].segments_delivered, 5u) << "RX " << k;
  }
}

TEST(ArqSystem, StopsEarlyWhenWorkloadDone) {
  SystemConfig cfg = fast_config();
  cfg.wifi.loss_probability = 0.0;
  auto system = DenseVlcSystem::with_static_rxs(cfg, {{1.0, 1.0, 0.0}});
  const auto report = system.run_arq(30.0, 40, 3);
  // 3 segments take well under a second; the loop must not spin for 30 s
  // of simulated slots (transmissions stay exactly 3).
  EXPECT_EQ(report.rx[0].transmissions, 3u);
}

TEST(ArqSystem, CountersArePinned) {
  // Exact ArqReport counters on the Fig. 7 scene (the paper's testbed, 4
  // RXs) with a lossy WiFi uplink, so retransmissions, duplicates and
  // give-ups all occur. Any change to the data path's arithmetic or to
  // the order of its Rng draws moves them.
  // segments_offered, _delivered, _dropped, transmissions, duplicates,
  // give_ups
  const std::array<std::array<std::uint64_t, 6>, 4> pins{{
      {20, 18, 0, 26, 8, 0},
      {20, 17, 2, 26, 7, 2},
      {20, 12, 1, 17, 3, 1},
      {20, 4, 2, 8, 2, 2},
  }};
  SystemConfig cfg;
  cfg.wifi.loss_probability = 0.3;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, scenario::fig7_rx_positions());
  const auto report = system.run_arq(3.0, 600, 20, 2);
  ASSERT_EQ(report.rx.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const auto& rx = report.rx[k];
    EXPECT_EQ((std::array<std::uint64_t, 6>{
                  rx.segments_offered, rx.segments_delivered,
                  rx.segments_dropped, rx.transmissions, rx.duplicates,
                  rx.give_ups}),
              pins[k])
        << "RX " << k;
  }
}

TEST(ArqSystem, CountersArePinnedWithoutSync) {
  // The Fig. 7 scene without TX synchronization, so most frames fail and
  // lanes that were not delivered take no WiFi-ACK draw: run_arq's
  // speculative batch mispredicts in most slots and must re-run them.
  const Counters pins{{
      {20, 10, 7, 26, 6, 7},
      {20, 19, 1, 25, 5, 1},
      {20, 1, 12, 26, 0, 12},
      {20, 5, 9, 26, 1, 9},
  }};
  SystemConfig cfg;
  cfg.sync_mode = SyncMode::kNone;
  cfg.wifi.loss_probability = 0.3;
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, scenario::fig7_rx_positions());
  const auto report = system.run_arq(3.0, 600, 20, 2);
  expect_counters(report, pins);
}

TEST(ArqSystem, CountersArePinnedWithRxDropout) {
  // As CountersArePinned, with RX 1 dropped out for the middle of the
  // run: its lanes are still transmitted, but never ACKed.
  const Counters pins{{
      {20, 17, 2, 26, 7, 2},
      {20, 6, 9, 26, 5, 9},
      {20, 10, 1, 17, 5, 1},
      {20, 12, 2, 17, 3, 2},
  }};
  SystemConfig cfg;
  cfg.wifi.loss_probability = 0.3;
  cfg.faults.add({fault::FaultKind::kRxDropout, 0.8, 2.0, 1, 1.0});
  auto system =
      DenseVlcSystem::with_static_rxs(cfg, scenario::fig7_rx_positions());
  const auto report = system.run_arq(3.0, 600, 20, 2);
  expect_counters(report, pins);
}

}  // namespace
}  // namespace densevlc::core
