// The paper's Sec. 3.4 and Sec. 9 claims, checked on the committed
// extension campaigns at each file's full `instances`.
//
// Each test loads one scenarios/ext_*.ini, runs it through run_campaign
// exactly as `bench/campaign scenarios/ext_*.ini` does (which prints the
// full tables), and asserts the claim the campaign was written to test.
// A failing claim is a finding about the model, recorded in
// EXPERIMENTS.md, not a bound to widen.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/campaign.hpp"

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

}  // namespace
}  // namespace densevlc::scenario
