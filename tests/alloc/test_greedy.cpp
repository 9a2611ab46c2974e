// Tests for the greedy marginal-utility allocator.
#include "alloc/greedy.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "alloc/assignment.hpp"
#include "scenario/compile.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::alloc {
namespace {

struct Fixture {
  core::Testbed tb = core::make_simulation_testbed();
  channel::ChannelMatrix h = tb.channel_for(scenario::fig7_rx_positions());
};

TEST(Greedy, RespectsBudget) {
  Fixture f;
  for (double budget : {0.1, 0.5, 1.2}) {
    const auto res = greedy_allocate(f.h, Watts{budget}, f.tb.budget);
    EXPECT_LE(res.power_used_w, budget + 1e-9);
    EXPECT_NEAR(res.power_used_w,
                channel::total_comm_power(res.allocation, f.tb.budget).value(),
                1e-12);
  }
}

TEST(Greedy, ZeroBudgetAssignsNothing) {
  Fixture f;
  const auto res = greedy_allocate(f.h, Watts{0.0}, f.tb.budget);
  EXPECT_EQ(res.txs_assigned, 0u);
}

TEST(Greedy, AllAssignmentsFullSwing) {
  Fixture f;
  const auto res = greedy_allocate(f.h, Watts{0.8}, f.tb.budget);
  for (std::size_t j = 0; j < 36; ++j) {
    const double total = res.allocation.tx_total_swing(j).value();
    EXPECT_TRUE(total == 0.0 || std::abs(total - 0.9) < 1e-12);
  }
}

TEST(Greedy, FirstGrantIsBestSingleTx) {
  // With budget for one TX, greedy must find the single best grant.
  Fixture f;
  const double per_tx = full_swing_tx_power(Amperes{0.9}, f.tb.budget).value();
  const auto res = greedy_allocate(f.h, Watts{per_tx + 1e-9}, f.tb.budget);
  ASSERT_EQ(res.txs_assigned, 1u);
  const double greedy_utility = res.utility;
  // Exhaustive check.
  double best = -1e300;
  for (std::size_t j = 0; j < 36; ++j) {
    for (std::size_t k = 0; k < 4; ++k) {
      channel::Allocation a{36, 4};
      a.set_swing(j, k, 0.9);
      best = std::max(best, channel::sum_log_utility(f.h, a, f.tb.budget));
    }
  }
  EXPECT_NEAR(greedy_utility, best, 1e-9);
}

TEST(Greedy, UtilityAtLeastSjrHeuristic) {
  // Greedy re-evaluates coupling every step; it should not lose to the
  // channel-only ranking (ties allowed).
  Fixture f;
  AssignmentOptions opts;
  for (double budget : {0.3, 0.8, 1.2}) {
    const auto greedy = greedy_allocate(f.h, Watts{budget}, f.tb.budget);
    const auto sjr = heuristic_allocate(f.h, 1.3, Watts{budget}, f.tb.budget, opts);
    EXPECT_GE(greedy.utility,
              channel::sum_log_utility(f.h, sjr.allocation, f.tb.budget) -
                  0.05)
        << "budget " << budget;
  }
}

TEST(Greedy, StopsWhenNoGrantHelps) {
  // A huge budget must not force harmful grants: greedy stops early.
  Fixture f;
  const auto res = greedy_allocate(f.h, Watts{100.0}, f.tb.budget);
  EXPECT_LT(res.txs_assigned, 36u);
  // The utility of the result must not improve by removing any TX
  // (local maximality in the downward direction is not guaranteed, but
  // the final grant was an improvement).
  EXPECT_GT(res.utility, 0.0);
}

TEST(Greedy, CountsEvaluations) {
  Fixture f;
  const auto res = greedy_allocate(f.h, Watts{0.2}, f.tb.budget);
  // At least one full scan of 36 x 4 candidates.
  EXPECT_GE(res.evaluations, 100u);
}

TEST(Greedy, OutputsArePinned) {
  // FNV-1a over the allocation's bit patterns, plus the exact utility and
  // evaluation count, on four random drops. Any change to the candidate
  // order, the tie-break or the utility arithmetic moves them.
  Fixture f;
  const auto instances = scenario::random_instances(4, 0.25, f.tb.room, 0x6EE);
  const std::uint64_t kHash[] = {1383467773169733797ULL, 447215479030647973ULL,
                                 14814875068492199717ULL,
                                 15704395640995667365ULL};
  const double kUtility[] = {58.875214617142056, 59.33601853951469,
                             59.185691013159229, 58.215602045789893};
  const std::size_t kEvaluations[] = {1824, 1824, 1824, 1824};
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto res = greedy_allocate(f.tb.channel_for(instances[i]),
                                     Watts{0.9}, f.tb.budget);
    EXPECT_EQ(scenario::hash_doubles(res.allocation.data()), kHash[i]) << i;
    EXPECT_EQ(res.utility, kUtility[i]) << i;
    EXPECT_EQ(res.evaluations, kEvaluations[i]) << i;
  }
}

}  // namespace
}  // namespace densevlc::alloc
