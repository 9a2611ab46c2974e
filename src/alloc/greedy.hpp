// Greedy marginal-utility allocation — the classic alternative to the
// paper's SJR ranking.
//
// Instead of pre-ranking TXs by a channel-only score, greedy allocation
// repeatedly grants one full-swing TX to whichever (TX, RX) pair
// currently yields the largest increase of the sum-log objective,
// re-evaluating the SINR coupling after every grant. It is the natural
// "do the math every step" baseline: O(N^2 M) utility evaluations versus
// the heuristic's one O(NM + N log N) scoring-and-sort pass — hundreds of
// times more arithmetic — and the ablation bench measures what that buys.
#pragma once

#include <cstddef>

#include "channel/model.hpp"

namespace densevlc::alloc {

/// Result of greedy allocation.
struct GreedyResult {
  channel::Allocation allocation;
  double utility = 0.0;
  double power_used_w = 0.0;
  std::size_t txs_assigned = 0;
  std::size_t evaluations = 0;  ///< utility computations performed
};

/// Grants full-swing TXs one at a time by best marginal utility until
/// the budget is exhausted or no grant improves the objective.
GreedyResult greedy_allocate(const channel::ChannelMatrix& h,
                             Watts power_budget,
                             const channel::LinkBudget& budget,
                             Amperes max_swing = Amperes{0.9});

}  // namespace densevlc::alloc
