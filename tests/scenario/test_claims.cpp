// The paper's claims, each held by one named test.
//
// ExtClaims: the Sec. 3.4 and Sec. 9 claims, checked on the committed
// extension campaigns at each file's full `instances`. Each test loads
// one scenarios/ext_*.ini, runs it through run_campaign exactly as
// `bench/campaign scenarios/ext_*.ini` does (which prints the full
// tables), and asserts the claim the campaign was written to test.
//
// Claims: the evaluation's rows, through the same library calls and
// seeds as the bench that prints them, asserting the shape the row
// states rather than its digits.
//
// A failing claim is a finding about the model, recorded in
// EXPERIMENTS.md, not a bound to widen.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/beamspot.hpp"
#include "core/testbed.hpp"
#include "scenario/campaign.hpp"
#include "sync/nlos_sync.hpp"
#include "sync/timesync.hpp"

namespace densevlc::scenario {
namespace {

struct ExpandedCampaign {
  CampaignSpec campaign;
  std::vector<CampaignInstance> instances;
};

ExpandedCampaign expand_file(const std::string& name) {
  const auto parsed =
      load_campaign_file(std::string{DVLC_SCENARIO_DIR} + "/" + name);
  EXPECT_TRUE(parsed.ok()) << parsed.error_text();
  ExpandedCampaign out{*parsed.campaign, {}};
  const auto errors = expand_campaign(
      out.campaign, out.campaign.instances_per_point, out.instances);
  EXPECT_TRUE(errors.empty());
  return out;
}

/// The sweep leg text of `point` for axis `key` ("" when absent).
std::string axis_value(const PointAggregate& point, const std::string& key) {
  for (const auto& [axis, value] : point.axis_values) {
    if (axis == key) return value;
  }
  return {};
}

TEST(ExtClaims, DenserGridRaisesThroughputAtFourRxs) {
  // Sec. 9: "the lower the TX density, the less degrees of freedom ...
  // lower system throughput".
  const auto ex = expand_file("ext_density.ini");
  const auto run = run_campaign(ex.campaign, ex.instances);
  double tput_4x4 = -1.0;
  double tput_8x8 = -1.0;
  for (std::size_t p = 0; p < run.points.size(); ++p) {
    if (axis_value(run.points[p], "rx.count") != "4") continue;
    const ScenarioSpec& spec =
        ex.instances[p * ex.campaign.instances_per_point].spec;
    if (spec.grid_rows == 4) tput_4x4 = run.points[p].system_mbps.mean;
    if (spec.grid_rows == 8) tput_8x8 = run.points[p].system_mbps.mean;
  }
  ASSERT_GE(tput_4x4, 0.0) << "no 4x4 / 4-RX point";
  ASSERT_GE(tput_8x8, 0.0) << "no 8x8 / 4-RX point";
  EXPECT_GT(tput_8x8, tput_4x4) << "Mbit/s, 8x8 vs 4x4";
}

TEST(ExtClaims, DimmingTo200LuxCostsThroughput) {
  // Sec. 3.4: a smaller bias shrinks the valid modulation region, so at
  // the same communication budget the dimmer room carries less.
  const auto ex = expand_file("ext_dimming.ini");
  const auto run = run_campaign(ex.campaign, ex.instances);
  double tput_200 = -1.0;
  double tput_500 = -1.0;
  for (std::size_t p = 0; p < run.points.size(); ++p) {
    const double lux =
        ex.instances[p * ex.campaign.instances_per_point].spec.target_lux;
    if (lux == 200.0) tput_200 = run.points[p].system_mbps.mean;
    if (lux == 500.0) tput_500 = run.points[p].system_mbps.mean;
  }
  ASSERT_GE(tput_200, 0.0) << "no 200-lux point";
  ASSERT_GE(tput_500, 0.0) << "no 500-lux point";
  EXPECT_LT(tput_200, tput_500) << "Mbit/s, 200 vs 500 lux";
}

TEST(ExtClaims, BestBlockerPositionBeatsClearRoom) {
  // Sec. 9: blockage "could bring benefit to the system since it can
  // reduce the interference from other TXs".
  const auto ex = expand_file("ext_blockage.ini");
  ScenarioSpec clear = ex.campaign.base;
  clear.blockers.clear();
  const InstanceResult clear_run = run_instance(compile(clear), clear.seed);
  const auto run = run_campaign(ex.campaign, ex.instances);
  ASSERT_FALSE(run.instances.empty());
  double best = run.instances.front().system_mbps;
  for (const InstanceResult& r : run.instances) {
    if (r.system_mbps > best) best = r.system_mbps;
  }
  EXPECT_GT(best, clear_run.system_mbps) << "Mbit/s, best blocker vs clear";
}

TEST(ExtClaims, BlockerOnServingPathHurtsRx1) {
  // The committed base spec stands the person on RX1's serving path.
  const auto ex = expand_file("ext_blockage.ini");
  const ScenarioSpec& blocked = ex.campaign.base;
  ASSERT_EQ(blocked.blockers.size(), 1u);
  ScenarioSpec clear = blocked;
  clear.blockers.clear();
  const InstanceResult clear_run = run_instance(compile(clear), clear.seed);
  const InstanceResult blocked_run =
      run_instance(compile(blocked), blocked.seed);
  ASSERT_FALSE(clear_run.per_rx_mbps.empty());
  ASSERT_EQ(blocked_run.per_rx_mbps.size(), clear_run.per_rx_mbps.size());
  EXPECT_LT(blocked_run.per_rx_mbps[0], clear_run.per_rx_mbps[0])
      << "RX1 Mbit/s, blocked vs clear";
}

TEST(ExtClaims, TenPercentLedFailureRetainsSixtyPercent) {
  // Sec. 8's controller under a chaos schedule: with 10% of the LEDs
  // burnt out, the first decision after the failure and the steady state
  // each keep at least 60% of the pre-fault sum throughput.
  const auto ex = expand_file("ext_faults.ini");
  const auto run = run_campaign(ex.campaign, ex.instances);
  const double epoch_s =
      compile(ex.campaign.base).system.mac.epoch_period_s;
  // The fail epoch is the first to start after the burnouts strike.
  std::size_t fail_epoch = 0;
  while (static_cast<double>(fail_epoch) * epoch_s <=
         ex.campaign.base.fault_time_s) {
    ++fail_epoch;
  }
  const auto mean_of = [](const std::vector<double>& v, std::size_t lo,
                          std::size_t hi) {
    double sum = 0.0;
    for (std::size_t e = lo; e < hi; ++e) sum += v[e];
    return sum / static_cast<double>(hi - lo);
  };
  std::size_t checked = 0;
  for (std::size_t i = 0; i < ex.instances.size(); ++i) {
    if (ex.instances[i].spec.led_fail_fraction != 0.1) continue;
    const std::vector<double>& decided = run.instances[i].epoch_decided_mbps;
    ASSERT_GT(decided.size(), fail_epoch + 4) << "instance " << i;
    const double pre_fault = mean_of(decided, 0, fail_epoch);
    ASSERT_GT(pre_fault, 0.0) << "instance " << i;
    const double steady = mean_of(decided, fail_epoch + 4, decided.size());
    EXPECT_GE(decided[fail_epoch] / pre_fault, 0.6)
        << "first re-decision, instance " << i;
    EXPECT_GE(steady / pre_fault, 0.6) << "steady state, instance " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0u) << "no 10% fail-fraction instance";
}

// One Table 5 scenario as bench_table5_iperf runs it: `frames` 100-byte
// frames to one RX at the centre of TX2/TX3/TX8/TX9, from `txs`. TX2 and
// TX8 share BBB A, which anchors the timeline; TX3 and TX9 hang off BBB
// B, offset per frame by the unsynchronized start spread or by an NLOS
// sync error sample.
struct IperfResult {
  double goodput_kbps = 0.0;
  double per_percent = 0.0;
};

IperfResult run_iperf(const core::Testbed& tb,
                      const std::vector<std::size_t>& txs, bool bbb_b_synced,
                      bool bbb_b_used, const std::vector<double>& nlos_errors,
                      std::size_t frames, Rng& rng) {
  const core::JointTransmission jt{tb.led, phy::OokParams{},
                                   phy::FrontEndConfig{}};
  const auto h = tb.channel_for({{1.0, 0.5, 0.0}});
  const sync::TimeSyncConfig ts;
  phy::MacFrame frame;
  frame.dst = 0;
  frame.src = 0xC0;
  frame.payload.resize(100);
  for (std::size_t i = 0; i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const double mac_gap_s = 3e-3;  // guard + multicast + ACK turnaround
  std::size_t delivered = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    double bbb_b_offset = 0.0;
    if (bbb_b_used && !bbb_b_synced) {
      bbb_b_offset = sync::streaming_start_offset_s(ts, rng);
    } else if (bbb_b_used) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nlos_errors.size()) - 1));
      bbb_b_offset = nlos_errors[idx];
    }
    std::vector<core::ServingTx> servers;
    for (const std::size_t tx : txs) {
      const bool on_bbb_a = tx == 1 || tx == 7;  // TX2, TX8
      servers.push_back(
          {tx, h.gain(tx, 0), 0.9, on_bbb_a ? 0.0 : bbb_b_offset});
    }
    delivered += jt.transmit(servers, frame, rng).delivered ? 1 : 0;
  }
  const double elapsed =
      static_cast<double>(frames) * (jt.frame_airtime_s(frame) + mac_gap_s);
  return {static_cast<double>(delivered) * 100.0 * 8.0 / elapsed / 1e3,
          100.0 * (1.0 - static_cast<double>(delivered) /
                             static_cast<double>(frames))};
}

TEST(Claims, Table5SyncRestoresGoodput) {
  // Table 5: a 4-TX beamspot across two BBBs loses (nearly) every frame
  // without synchronization, and NLOS VLC sync restores the goodput of
  // the inherently aligned 2-TX beamspot. bench_table5_iperf's shape
  // check, on its seed and frame count.
  const auto tb = core::make_experimental_testbed();
  Rng rng{0x7AB'5};
  // The NLOS sync error of TX2 leading TX3, characterized once.
  sync::NlosSyncConfig nc;
  nc.leader_pose = geom::ceiling_pose(0.75, 0.25, 2.0);
  nc.follower_pose = geom::ceiling_pose(1.25, 0.25, 2.0);
  sync::NlosSynchronizer nlos{nc};
  std::vector<double> nlos_errors;
  for (int t = 0; t < 40; ++t) {
    const auto d = nlos.simulate_once(rng);
    if (d.detected && d.id_matches) nlos_errors.push_back(d.start_error_s);
  }
  if (nlos_errors.empty()) nlos_errors.push_back(1e-6);

  const std::size_t frames = 80;
  const auto two_tx =
      run_iperf(tb, {1, 7}, false, false, nlos_errors, frames, rng);
  const auto four_nosync =
      run_iperf(tb, {1, 2, 7, 8}, false, true, nlos_errors, frames, rng);
  const auto four_sync =
      run_iperf(tb, {1, 2, 7, 8}, true, true, nlos_errors, frames, rng);
  EXPECT_GT(four_nosync.per_percent, 90.0);
  EXPECT_LT(two_tx.per_percent, 5.0);
  EXPECT_LT(four_sync.per_percent, 5.0);
  EXPECT_GT(four_sync.goodput_kbps, 0.9 * two_tx.goodput_kbps)
      << "Kbit/s, 4 TXs synced vs 2 TXs";
}

}  // namespace
}  // namespace densevlc::scenario
