#include "alloc/greedy.hpp"

#include "alloc/assignment.hpp"
#include "common/contracts.hpp"

namespace densevlc::alloc {

GreedyResult greedy_allocate(const channel::ChannelMatrix& h,
                             Watts power_budget,
                             const channel::LinkBudget& budget,
                             Amperes max_swing) {
  DVLC_EXPECT(power_budget >= Watts{0.0},
              "power budget must be non-negative");
  DVLC_EXPECT(max_swing > Amperes{0.0}, "max swing must be positive");
  const double max_swing_a = max_swing.value();
  const std::size_t n = h.num_tx();
  const std::size_t m = h.num_rx();
  GreedyResult out;
  out.allocation = channel::Allocation{n, m};

  const double per_tx = full_swing_tx_power(max_swing, budget).value();
  double remaining = power_budget.value();
  std::vector<bool> used(n, false);
  double current_utility =
      channel::sum_log_utility(h, out.allocation, budget);

  while (remaining >= per_tx) {
    // Score every open (TX, RX) grant on its own copy of the current
    // allocation; the first strictly-improving-by-margin candidate in
    // (TX, RX) order wins ties.
    double best_utility = current_utility;
    std::size_t best_tx = n;
    std::size_t best_rx = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (used[j]) continue;
      for (std::size_t k = 0; k < m; ++k) {
        if (h.gain(j, k) <= 0.0) continue;
        channel::Allocation trial = out.allocation;
        trial.set_swing(j, k, max_swing_a);
        const double utility = channel::sum_log_utility(h, trial, budget);
        ++out.evaluations;
        if (utility > best_utility + 1e-12) {
          best_utility = utility;
          best_tx = j;
          best_rx = k;
        }
      }
    }
    if (best_tx == n) break;  // no grant improves the objective
    out.allocation.set_swing(best_tx, best_rx, max_swing_a);
    used[best_tx] = true;
    current_utility = best_utility;
    remaining -= per_tx;
    ++out.txs_assigned;
  }

  out.utility = current_utility;
  out.power_used_w = channel::total_comm_power(out.allocation, budget).value();
  return out;
}

}  // namespace densevlc::alloc
