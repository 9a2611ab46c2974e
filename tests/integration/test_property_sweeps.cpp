// Parameterized property sweeps across the evaluation space: the
// invariants that must hold for *every* receiver placement, PHY rate and
// modem geometry, not just the fixtures the unit tests use.
#include <gtest/gtest.h>

#include <cmath>

#include "alloc/assignment.hpp"
#include "alloc/greedy.hpp"
#include "alloc/optimal.hpp"
#include "common/rng.hpp"
#include "phy/ofdm.hpp"
#include "phy/ook.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc {
namespace {

// ---------------------------------------------------------------------
// Allocation invariants across random receiver instances.

class InstanceSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  core::Testbed tb = core::make_simulation_testbed();
  channel::ChannelMatrix channel_for_instance() {
    const auto instances =
        scenario::random_instances(12, 0.25, tb.room, 0x5EEE);
    return tb.channel_for(instances[GetParam()]);
  }
};

TEST_P(InstanceSweep, HeuristicFeasibleAndFair) {
  const auto h = channel_for_instance();
  alloc::AssignmentOptions opts;
  for (double budget : {0.3, 1.2}) {
    const auto res =
        alloc::heuristic_allocate(h, 1.3, Watts{budget}, tb.budget, opts);
    // Feasibility.
    EXPECT_LE(channel::total_comm_power(res.allocation, tb.budget).value(),
              budget + 1e-9);
    for (std::size_t j = 0; j < 36; ++j) {
      EXPECT_LE(res.allocation.tx_total_swing(j).value(), 0.9 + 1e-12);
    }
    // Proportional fairness keeps every RX served at the full budget.
    if (budget >= 1.2) {
      const auto tput =
          channel::throughput_bps(h, res.allocation, tb.budget);
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_GT(tput[k], 0.0) << "RX " << k << " starved";
      }
    }
  }
}

TEST_P(InstanceSweep, OptimalDominatesHeuristicUtility) {
  const auto h = channel_for_instance();
  alloc::OptimalSolverConfig cfg;
  cfg.max_iterations = 120;
  alloc::AssignmentOptions opts;
  opts.allow_partial_tail = true;
  const auto opt = alloc::solve_optimal(h, Watts{0.8}, tb.budget, cfg);
  const auto heur = alloc::heuristic_allocate(h, 1.3, Watts{0.8}, tb.budget, opts);
  EXPECT_GE(opt.utility,
            channel::sum_log_utility(h, heur.allocation, tb.budget) - 1e-9);
}

TEST_P(InstanceSweep, GreedyFeasible) {
  const auto h = channel_for_instance();
  const auto res = alloc::greedy_allocate(h, Watts{0.6}, tb.budget);
  EXPECT_LE(res.power_used_w, 0.6 + 1e-9);
  EXPECT_GT(res.utility, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, InstanceSweep,
                         ::testing::Range<std::size_t>(0, 12));

// ---------------------------------------------------------------------
// Allocator invariants under randomized geometries.

class AllocatorInvariantSweep : public ::testing::Test {
 protected:
  core::Testbed tb = core::make_simulation_testbed();
};

TEST_F(AllocatorInvariantSweep, SwingAndPowerWithinBounds) {
  constexpr double kMaxSwingA = 0.9;
  const auto instances = scenario::random_instances(5, 0.4, tb.room, 0xA110C);
  alloc::OptimalSolverConfig cfg;
  cfg.max_iterations = 60;
  alloc::AssignmentOptions opts;
  opts.allow_partial_tail = true;
  for (const auto& rx_xy : instances) {
    const auto h = tb.channel_for(rx_xy);
    for (double budget_w : {0.4, 1.0}) {
      const channel::Allocation allocations[] = {
          alloc::heuristic_allocate(h, 1.3, Watts{budget_w}, tb.budget, opts)
              .allocation,
          alloc::greedy_allocate(h, Watts{budget_w}, tb.budget).allocation,
          alloc::solve_optimal(h, Watts{budget_w}, tb.budget, cfg).allocation,
      };
      for (const auto& a : allocations) {
        // Total swing power within the budget (constraint 7).
        EXPECT_LE(channel::total_comm_power(a, tb.budget).value(),
                  budget_w + 1e-9);
        // Per-LED swing within [0, Isw,max] (constraint 6).
        for (std::size_t j = 0; j < a.num_tx(); ++j) {
          double row = 0.0;
          for (std::size_t k = 0; k < a.num_rx(); ++k) {
            EXPECT_GE(a.swing(j, k), 0.0);
            row += a.swing(j, k);
          }
          EXPECT_LE(row, kMaxSwingA + 1e-9);
        }
      }
    }
  }
}

TEST_F(AllocatorInvariantSweep, GreedyUtilityMonotoneInBudget) {
  // Greedy's grant sequence for a smaller budget is a prefix of the
  // sequence for a larger one, and every grant improves the objective —
  // utility must be exactly non-decreasing in the budget.
  const auto instances = scenario::random_instances(4, 0.4, tb.room, 0xB06E7);
  for (const auto& rx_xy : instances) {
    const auto h = tb.channel_for(rx_xy);
    double prev = -1e300;
    for (double budget_w : {0.2, 0.5, 0.9, 1.4}) {
      const auto res = alloc::greedy_allocate(h, Watts{budget_w}, tb.budget);
      EXPECT_GE(res.utility, prev);
      prev = res.utility;
    }
  }
}

TEST_F(AllocatorInvariantSweep, HeuristicSinrImprovesWithBudget) {
  // SINR monotonicity under the ranked-grant heuristic: a larger budget
  // grants a superset of TXs, so system throughput (B log2(1+SINR)
  // summed) must not fall. Small dips can occur when a marginal grant
  // adds more interference than signal; allow 5% slack for those.
  const auto instances = scenario::random_instances(4, 0.4, tb.room, 0x51A2);
  alloc::AssignmentOptions opts;
  for (const auto& rx_xy : instances) {
    const auto h = tb.channel_for(rx_xy);
    double prev_bps = 0.0;
    for (double budget_w : {0.3, 0.6, 1.0, 1.5}) {
      const auto res =
          alloc::heuristic_allocate(h, 1.3, Watts{budget_w}, tb.budget, opts);
      double sum_bps = 0.0;
      for (double t : channel::throughput_bps(h, res.allocation, tb.budget)) {
        sum_bps += t;
      }
      EXPECT_GE(sum_bps, 0.95 * prev_bps) << "budget " << budget_w;
      prev_bps = sum_bps;
    }
  }
}

// ---------------------------------------------------------------------
// OOK frame round trips across chip rates and oversampling ratios.

class ChipRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChipRateSweep, FrameRoundTripAtRate) {
  phy::OokParams params;
  params.chip_rate_hz = GetParam();
  params.samples_per_chip = 10;
  const phy::OokModulator mod{params};
  const phy::OokDemodulator demod{params.chip_rate_hz,
                                  params.sample_rate_hz()};
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  phy::MacFrame f;
  f.payload.resize(64);
  for (auto& b : f.payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  auto wf = mod.modulate_frame(f, false, 0, 8);
  for (double& s : wf.samples) {
    s = s - params.bias_current_a + rng.gaussian(0.0, 0.05);
  }
  const auto res = demod.receive_frame(wf.samples);
  ASSERT_TRUE(res.has_value()) << "rate " << GetParam();
  EXPECT_EQ(res->parsed.frame, f);
}

INSTANTIATE_TEST_SUITE_P(Rates, ChipRateSweep,
                         ::testing::Values(25e3, 50e3, 100e3, 200e3,
                                           500e3));

// ---------------------------------------------------------------------
// OFDM round trips across modem geometries.

struct OfdmCase {
  std::size_t fft;
  std::size_t cp;
  std::size_t bits;
};

class OfdmSweep : public ::testing::TestWithParam<OfdmCase> {};

TEST_P(OfdmSweep, CleanRoundTrip) {
  const auto c = GetParam();
  phy::OfdmConfig cfg;
  cfg.fft_size = c.fft;
  cfg.cyclic_prefix = c.cp;
  cfg.bits_per_symbol = c.bits;
  cfg.swing_scale_a = 0.1;
  const phy::OfdmModem modem{cfg};
  Rng rng{c.fft * 131 + c.bits};
  std::vector<std::uint8_t> bits(700);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  const auto wf = modem.modulate(bits);
  const auto decoded = modem.demodulate(wf, bits.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bits);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, OfdmSweep,
    ::testing::Values(OfdmCase{16, 2, 2}, OfdmCase{32, 4, 4},
                      OfdmCase{64, 8, 2}, OfdmCase{64, 8, 6},
                      OfdmCase{128, 16, 4}, OfdmCase{256, 16, 6}));

// ---------------------------------------------------------------------
// Polish invariants across budgets.

class PolishSweep : public ::testing::TestWithParam<double> {};

TEST_P(PolishSweep, BinaryAndFeasibleEverywhere) {
  const auto tb = core::make_simulation_testbed();
  const auto h = tb.channel_for(scenario::fig7_rx_positions());
  alloc::OptimalSolverConfig cfg;
  cfg.max_iterations = 100;
  const auto opt =
      alloc::solve_optimal(h, Watts{GetParam()}, tb.budget, cfg);
  const auto polished =
      alloc::polish_binary(h, opt.allocation, Watts{GetParam()}, tb.budget,
                           Amperes{0.9});
  EXPECT_LE(polished.power_used_w, GetParam() + 1e-9);
  for (std::size_t j = 0; j < 36; ++j) {
    const double total = polished.allocation.tx_total_swing(j).value();
    EXPECT_TRUE(total < 1e-9 || std::fabs(total - 0.9) < 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, PolishSweep,
                         ::testing::Values(0.2, 0.5, 0.8, 1.1, 1.4, 2.0));

}  // namespace
}  // namespace densevlc
