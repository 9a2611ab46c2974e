// Scenario compilation and single-instance evaluation.
//
// compile() lowers a validated ScenarioSpec into the concrete objects
// the rest of the stack consumes — a core::SystemConfig whose testbed,
// LED operating point and link budget are built from the spec fields
// (running the luminaire planner first when the spec dims), plus the
// allocator options and evaluation plan. run_instance() then executes
// one seeded instance:
//
//   - receiver placement: fixed coordinates, or uniform draws from the
//     instance's placement stream (Rng::split of the instance seed, so
//     an instance's layout is a pure function of its seed — independent
//     of shard order and thread count);
//   - analytic scenarios build the LOS channel, apply blockage, run the
//     SJR heuristic once and fingerprint the per-RX Shannon throughputs
//     (the Fig. 8 evaluation path);
//   - soak scenarios assemble a full DenseVlcSystem (fault schedule
//     included) and fingerprint every epoch's post-decision throughputs
//     (the chaos-soak evaluation path of scenarios/ext_faults.ini).
//
// The fingerprint is the reproducibility contract: two runs of the same
// compiled scenario at the same instance seed must agree bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "alloc/assignment.hpp"
#include "core/config.hpp"
#include "scenario/spec.hpp"

namespace densevlc::scenario {

/// RNG sub-stream ids hung off the instance seed. The system itself is
/// seeded with the instance seed directly (stream of its own choosing);
/// scenario-level draws use split streams so adding a new draw site
/// never perturbs an existing one.
inline constexpr std::uint64_t kPlacementStream = 1;

/// A spec lowered to runnable form. `system.seed` is a placeholder —
/// run_instance() overwrites it with the instance seed.
struct CompiledScenario {
  core::SystemConfig system;
  alloc::AssignmentOptions alloc_options;
  EvalKind kind = EvalKind::kAnalytic;
  double kappa = 1.3;
  double power_budget_w = 1.2;
  RxPlacement placement = RxPlacement::kFixed;
  std::vector<geom::Vec3> fixed_rx;
  std::size_t rx_count = 0;
  double rx_margin_m = 0.4;
  std::vector<channel::CylinderBlocker> blockers;
  std::size_t epochs = 1;
};

/// Everything measured from one seeded instance.
struct InstanceResult {
  /// Exact per-RX throughput bits: one entry per RX (analytic) or per
  /// epoch x RX in epoch order (soak). Bit-compared across thread
  /// counts and shard orders.
  std::vector<double> fingerprint;
  std::vector<double> per_rx_mbps;    ///< final-decision per-RX throughput
  double system_mbps = 0.0;           ///< sum (analytic) / epoch mean (soak)
  double jain = 0.0;                  ///< fairness of per_rx_mbps
  double power_used_w = 0.0;
  double txs_assigned = 0.0;          ///< epoch mean for soaks
  // Soak-only extras (empty/zero for analytic instances).
  std::vector<double> epoch_held_mbps;     ///< held allocation vs faulted H
  std::vector<double> epoch_decided_mbps;  ///< after each decision
  std::uint64_t watchdog_holds = 0;
  std::size_t dead_txs = 0;

  /// FNV-1a over the fingerprint's IEEE-754 bit patterns.
  std::uint64_t fingerprint_hash() const;
};

/// FNV-1a 64-bit hash over the bit patterns of a double sequence.
std::uint64_t hash_doubles(std::span<const double> values);

/// Lowers a validated spec. Precondition: validate_spec(spec) is empty.
CompiledScenario compile(const ScenarioSpec& spec);

/// Receiver floor positions of one instance: the fixed list, or uniform
/// draws from the placement stream of `instance_seed`.
std::vector<geom::Vec3> instance_rx_positions(const CompiledScenario& scenario,
                                              std::uint64_t instance_seed);

/// Runs one seeded instance to completion. Pure: the result depends
/// only on (scenario, instance_seed).
InstanceResult run_instance(const CompiledScenario& scenario,
                            std::uint64_t instance_seed);

}  // namespace densevlc::scenario
