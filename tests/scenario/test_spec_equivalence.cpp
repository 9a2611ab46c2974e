// Differential harness: committed spec files vs hand-wired C++.
//
// Each test parses one of the committed campaign files under scenarios/,
// expands an instance, runs it through the scenario compiler — and then
// reproduces the same instance with the legacy hand-wired construction
// (the exact calls the pre-spec bench/ext_* binaries made, seeded with
// the instance's derived stream seed). The per-RX throughput
// fingerprints must agree bit for bit: the spec path is a refactoring of
// the hand wiring, not an approximation of it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "alloc/assignment.hpp"
#include "channel/blockage.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"
#include "illum/dimming.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::scenario {
namespace {

CampaignSpec load_campaign(const std::string& name) {
  const std::string path = std::string{DVLC_SCENARIO_DIR} + "/" + name;
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const CampaignParseResult parsed = parse_campaign(buffer.str());
  EXPECT_TRUE(parsed.ok()) << parsed.error_text();
  return *parsed.campaign;
}

/// The expanded instance at (point, rep), straight from the spec.
CampaignInstance instance_at(const CampaignSpec& campaign, std::size_t point,
                             std::size_t rep) {
  std::vector<CampaignInstance> instances;
  const auto errors =
      expand_campaign(campaign, campaign.instances_per_point, instances);
  EXPECT_TRUE(errors.empty());
  const std::size_t index = point * campaign.instances_per_point + rep;
  EXPECT_LT(index, instances.size());
  return instances[index];
}

/// Per-RX Shannon throughputs of the legacy analytic wiring.
std::vector<double> legacy_analytic(const core::Testbed& tb,
                                    const std::vector<geom::Vec3>& rx_xy,
                                    double kappa, double budget_w,
                                    const alloc::AssignmentOptions& opts,
                                    const channel::LinkBudget& budget) {
  const auto h = tb.channel_for(rx_xy);
  const auto res =
      alloc::heuristic_allocate(h, kappa, Watts{budget_w}, budget, opts);
  return channel::throughput_bps(h, res.allocation, budget);
}

TEST(SpecEquivalence, DensityInstanceMatchesHandWiring) {
  const CampaignSpec campaign = load_campaign("ext_density.ini");
  // Point 11: grid leg 2 (8x8 @ 0.375 m) x rx leg 3 (8 receivers).
  const CampaignInstance inst = instance_at(campaign, 11, 13);
  ASSERT_EQ(inst.spec.grid_rows, 8u);
  ASSERT_EQ(inst.spec.rx_count, 8u);
  const InstanceResult spec_run =
      run_instance(compile(inst.spec), inst.seed);

  // Legacy wiring of bench/ext_density, at the instance's stream seed.
  core::Testbed tb = core::make_simulation_testbed();
  tb.grid = geom::GridSpec{8, 8, 0.375, 2.8};
  Rng rng{Rng::derive_stream_seed(inst.seed, kPlacementStream)};
  std::vector<geom::Vec3> rx_xy;
  for (std::size_t k = 0; k < 8; ++k) {
    const double x = rng.uniform(0.4, 2.6);
    const double y = rng.uniform(0.4, 2.6);
    rx_xy.push_back({x, y, 0.0});
  }
  const auto tput = legacy_analytic(tb, rx_xy, 1.3, 1.2,
                                    alloc::AssignmentOptions{}, tb.budget);
  EXPECT_EQ(spec_run.fingerprint, tput);
}

TEST(SpecEquivalence, DensitySeedsFollowTheStreamContract) {
  const CampaignSpec campaign = load_campaign("ext_density.ini");
  const CampaignInstance inst = instance_at(campaign, 3, 5);
  EXPECT_EQ(inst.seed,
            Rng::derive_stream_seed(campaign.base.seed,
                                    3 * campaign.instances_per_point + 5));
}

TEST(SpecEquivalence, DimmingInstanceMatchesHandWiring) {
  const CampaignSpec campaign = load_campaign("ext_dimming.ini");
  // Point 2: illum.target_lux = 300.
  const CampaignInstance inst = instance_at(campaign, 2, 0);
  ASSERT_TRUE(inst.spec.dimming_enabled);
  ASSERT_DOUBLE_EQ(inst.spec.target_lux, 300.0);
  const InstanceResult spec_run =
      run_instance(compile(inst.spec), inst.seed);

  // Legacy wiring of bench/ext_dimming.
  const auto tb = core::make_simulation_testbed();
  const auto rx_xy = fig7_rx_positions();
  illum::LuminaireDesign design;
  design.target_lux = 300.0;
  const auto plan = plan_luminaires(tb.room, tb.tx_poses(), tb.emitter,
                                    tb.led.electrical(), design);
  const optics::LedModel led{tb.led.electrical(),
                             {plan.bias_a, plan.max_swing_a}};
  const auto budget = channel::LinkBudget::from_led(
      led, AmperesPerWatt{0.4}, AmpsSquaredPerHertz{7.02e-23}, Hertz{1e6});
  alloc::AssignmentOptions opts;
  opts.max_swing_a = plan.max_swing_a;
  const auto tput = legacy_analytic(tb, rx_xy, 1.3, 0.6, opts, budget);
  EXPECT_EQ(spec_run.fingerprint, tput);
}

TEST(SpecEquivalence, BlockageBaseSpecMatchesHandWiring) {
  const CampaignSpec campaign = load_campaign("ext_blockage.ini");
  const ScenarioSpec& spec = campaign.base;
  ASSERT_EQ(spec.blockers.size(), 1u);
  const InstanceResult spec_run = run_instance(compile(spec), spec.seed);

  // Legacy wiring of bench/ext_blockage's on-service case.
  const auto tb = core::make_experimental_testbed();
  const auto rx_xy = fig7_rx_positions();
  const std::vector<channel::CylinderBlocker> person{{1.07, 0.92, 0.25, 1.7}};
  auto h = tb.channel_for(rx_xy);
  h = channel::apply_blockage(h, tb.tx_poses(), tb.rx_poses(rx_xy), person);
  const auto res = alloc::heuristic_allocate(
      h, 1.3, Watts{1.2}, tb.budget, alloc::AssignmentOptions{});
  const auto tput = channel::throughput_bps(h, res.allocation, tb.budget);
  EXPECT_EQ(spec_run.fingerprint, tput);
}

TEST(SpecEquivalence, FaultSoakEpochFingerprintsMatchHandWiring) {
  const CampaignSpec campaign = load_campaign("ext_faults.ini");
  // Point 1: led_fail_fraction = 0.1.
  const CampaignInstance inst = instance_at(campaign, 1, 0);
  ASSERT_TRUE(inst.spec.faults_enabled);
  ASSERT_DOUBLE_EQ(inst.spec.led_fail_fraction, 0.1);
  const InstanceResult spec_run =
      run_instance(compile(inst.spec), inst.seed);

  // The soak wired by hand from core and scenario pieces (10 epochs,
  // failure at t = 3.5 s), seeded with the instance's stream seed.
  core::SystemConfig cfg;
  cfg.testbed = core::make_experimental_testbed();
  cfg.power_budget_w = 1.2;
  cfg.seed = inst.seed;
  cfg.faults =
      chaos_schedule(36, 0.1, 3.5, cfg.mac.epoch_period_s, 0xFA17);
  auto system =
      core::DenseVlcSystem::with_static_rxs(cfg, fig7_rx_positions());
  std::vector<double> fingerprint;
  std::vector<double> held_mbps;
  std::vector<double> decided_mbps;
  for (std::size_t e = 0; e < 10; ++e) {
    const double t = static_cast<double>(e) * cfg.mac.epoch_period_s;
    const auto held =
        system.controller().expected_throughput(system.faulted_channel(t));
    double held_sum = 0.0;
    for (double x : held) held_sum += x;
    held_mbps.push_back(held_sum / 1e6);
    const auto epoch = system.run_epoch_analytic(t);
    double post_sum = 0.0;
    for (double x : epoch.throughput_bps) {
      post_sum += x;
      fingerprint.push_back(x);
    }
    decided_mbps.push_back(post_sum / 1e6);
  }

  EXPECT_EQ(spec_run.fingerprint, fingerprint);
  EXPECT_EQ(spec_run.epoch_held_mbps, held_mbps);
  EXPECT_EQ(spec_run.epoch_decided_mbps, decided_mbps);
  EXPECT_EQ(spec_run.watchdog_holds, system.controller().watchdog_holds());
}

TEST(SpecEquivalence, DefaultSpecCompilesToSimulationTestbed) {
  ScenarioSpec spec = spec_defaults(TestbedKind::kSimulation);
  spec.rx_count = 4;
  spec.rx_fixed = fig7_rx_positions();
  const CompiledScenario compiled = compile(spec);
  const core::Testbed reference = core::make_simulation_testbed();
  const auto& tb = compiled.system.testbed;
  EXPECT_EQ(tb.grid.rows, reference.grid.rows);
  EXPECT_EQ(tb.grid.cols, reference.grid.cols);
  EXPECT_EQ(tb.grid.pitch, reference.grid.pitch);
  EXPECT_EQ(tb.grid.mount_height_m, reference.grid.mount_height_m);
  EXPECT_EQ(tb.rx_height_m, reference.rx_height_m);
  EXPECT_EQ(tb.emitter.half_power_semi_angle_rad,
            reference.emitter.half_power_semi_angle_rad);
  EXPECT_EQ(tb.led.operating_point().bias_current_a,
            reference.led.operating_point().bias_current_a);
  EXPECT_EQ(tb.led.operating_point().max_swing_current_a,
            reference.led.operating_point().max_swing_current_a);
  EXPECT_EQ(tb.budget.bandwidth_hz, reference.budget.bandwidth_hz);
  EXPECT_EQ(tb.budget.noise_psd_a2_per_hz,
            reference.budget.noise_psd_a2_per_hz);
}

}  // namespace
}  // namespace densevlc::scenario
