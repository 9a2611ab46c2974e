#include "scenario/compile.hpp"

#include <cstring>

#include "channel/blockage.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/system.hpp"
#include "illum/dimming.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::scenario {

std::uint64_t hash_doubles(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t InstanceResult::fingerprint_hash() const {
  return hash_doubles(fingerprint);
}

CompiledScenario compile(const ScenarioSpec& spec) {
  CompiledScenario out;
  out.kind = spec.kind;
  out.kappa = spec.kappa;
  out.power_budget_w = spec.power_budget_w;
  out.placement = spec.placement;
  out.fixed_rx = spec.rx_fixed;
  out.rx_count = spec.rx_count;
  out.rx_margin_m = spec.rx_margin_m;
  out.blockers = spec.blockers;
  out.epochs = spec.epochs;

  // The testbed, field by field from the spec — identical construction
  // order to core::make_*_testbed so a spec at the paper defaults is
  // bit-identical to the hand-wired testbeds.
  core::Testbed tb;
  tb.room = geom::Room{spec.room_width_m, spec.room_depth_m,
                       spec.room_height_m};
  tb.grid = geom::GridSpec{spec.grid_rows, spec.grid_cols, spec.grid_pitch_m,
                           spec.grid_mount_height_m};
  tb.rx_height_m = spec.rx_height_m;
  tb.emitter.half_power_semi_angle_rad =
      units::deg_to_rad(spec.led_half_angle_deg);
  tb.pd = optics::Photodiode{};
  tb.led = optics::LedModel{
      optics::LedElectrical{},
      optics::LedOperatingPoint{units::mA(spec.led_bias_ma),
                                units::mA(spec.led_max_swing_ma)}};
  const Hertz bandwidth{units::MHz(spec.bandwidth_mhz)};
  tb.budget = channel::LinkBudget::from_led(
      tb.led, AmperesPerWatt{0.4}, AmpsSquaredPerHertz{7.02e-23}, bandwidth);
  out.alloc_options.max_swing_a = units::mA(spec.led_max_swing_ma);

  if (spec.dimming_enabled) {
    // The illumination target dictates the bias; the swing ceiling and
    // the link budget follow from the dimmed operating point (paper
    // Sec. 3.4; SpecEquivalence.DimmingInstanceMatchesHandWiring pins it).
    illum::LuminaireDesign design;
    design.target_lux = spec.target_lux;
    design.leds_per_tx = spec.leds_per_tx;
    const auto plan = plan_luminaires(tb.room, tb.tx_poses(), tb.emitter,
                                      tb.led.electrical(), design);
    tb.led = optics::LedModel{tb.led.electrical(),
                              optics::LedOperatingPoint{plan.bias_a,
                                                        plan.max_swing_a}};
    tb.budget = channel::LinkBudget::from_led(
        tb.led, AmperesPerWatt{0.4}, AmpsSquaredPerHertz{7.02e-23},
        bandwidth);
    out.alloc_options.max_swing_a = plan.max_swing_a;
  }

  out.system.testbed = tb;
  out.system.kappa = spec.kappa;
  out.system.power_budget_w = spec.power_budget_w;
  out.system.max_swing_a = out.alloc_options.max_swing_a;
  out.system.seed = spec.seed;  // placeholder; run_instance re-seeds
  if (spec.faults_enabled) {
    out.system.faults = chaos_schedule(
        tb.grid.count(), spec.led_fail_fraction, spec.fault_time_s,
        out.system.mac.epoch_period_s, spec.fault_seed);
  }
  return out;
}

std::vector<geom::Vec3> instance_rx_positions(const CompiledScenario& scenario,
                                              std::uint64_t instance_seed) {
  if (scenario.placement == RxPlacement::kFixed) return scenario.fixed_rx;
  Rng rng{Rng::derive_stream_seed(instance_seed, kPlacementStream)};
  const auto& room = scenario.system.testbed.room;
  std::vector<geom::Vec3> rx_xy;
  rx_xy.reserve(scenario.rx_count);
  for (std::size_t k = 0; k < scenario.rx_count; ++k) {
    const double x =
        rng.uniform(scenario.rx_margin_m, room.width - scenario.rx_margin_m);
    const double y =
        rng.uniform(scenario.rx_margin_m, room.depth - scenario.rx_margin_m);
    rx_xy.push_back({x, y, 0.0});
  }
  return rx_xy;
}

namespace {

InstanceResult run_analytic(const CompiledScenario& scenario,
                            const std::vector<geom::Vec3>& rx_xy) {
  const core::Testbed& tb = scenario.system.testbed;
  channel::ChannelMatrix h = tb.channel_for(rx_xy);
  if (!scenario.blockers.empty()) {
    h = channel::apply_blockage(h, tb.tx_poses(), tb.rx_poses(rx_xy),
                                scenario.blockers);
  }
  const auto res =
      alloc::heuristic_allocate(h, scenario.kappa,
                                Watts{scenario.power_budget_w}, tb.budget,
                                scenario.alloc_options);
  const auto tput = channel::throughput_bps(h, res.allocation, tb.budget);

  InstanceResult out;
  out.fingerprint = tput;
  for (double t : tput) {
    out.per_rx_mbps.push_back(t / 1e6);
    out.system_mbps += t / 1e6;
  }
  out.jain = stats::jain_index(tput);
  out.power_used_w = res.power_used_w;
  out.txs_assigned = static_cast<double>(res.txs_assigned);
  return out;
}

InstanceResult run_soak(const CompiledScenario& scenario,
                        const std::vector<geom::Vec3>& rx_xy,
                        std::uint64_t instance_seed) {
  core::SystemConfig cfg = scenario.system;
  cfg.seed = instance_seed;
  auto system = core::DenseVlcSystem::with_static_rxs(cfg, rx_xy);

  InstanceResult out;
  out.dead_txs = cfg.faults.dead_tx_count(
      static_cast<double>(scenario.epochs) * cfg.mac.epoch_period_s);
  double decided_sum = 0.0;
  double txs_sum = 0.0;
  for (std::size_t e = 0; e < scenario.epochs; ++e) {
    const double t = static_cast<double>(e) * cfg.mac.epoch_period_s;
    // What users experience between a fault and the next decision: the
    // held allocation evaluated against the channel as it is *now*.
    const auto held =
        system.controller().expected_throughput(system.faulted_channel(t));
    double held_sum = 0.0;
    for (double x : held) held_sum += x;
    out.epoch_held_mbps.push_back(held_sum / 1e6);

    const auto epoch = system.run_epoch_analytic(t);
    double post_sum = 0.0;
    for (double x : epoch.throughput_bps) {
      post_sum += x;
      out.fingerprint.push_back(x);
    }
    out.epoch_decided_mbps.push_back(post_sum / 1e6);
    decided_sum += post_sum / 1e6;
    txs_sum += static_cast<double>(epoch.txs_assigned);
    out.power_used_w = epoch.power_used_w;
    if (e + 1 == scenario.epochs) {
      out.per_rx_mbps.clear();
      for (double x : epoch.throughput_bps) {
        out.per_rx_mbps.push_back(x / 1e6);
      }
    }
  }
  out.system_mbps = decided_sum / static_cast<double>(scenario.epochs);
  out.txs_assigned = txs_sum / static_cast<double>(scenario.epochs);
  out.jain = stats::jain_index(out.per_rx_mbps);
  out.watchdog_holds = system.controller().watchdog_holds();
  return out;
}

}  // namespace

InstanceResult run_instance(const CompiledScenario& scenario,
                            std::uint64_t instance_seed) {
  const auto rx_xy = instance_rx_positions(scenario, instance_seed);
  return scenario.kind == EvalKind::kAnalytic
             ? run_analytic(scenario, rx_xy)
             : run_soak(scenario, rx_xy, instance_seed);
}

}  // namespace densevlc::scenario
