#include "alloc/adaptive_kappa.hpp"

#include <algorithm>

namespace densevlc::alloc {
namespace {

/// The search halts when its step shrinks below this.
constexpr double kMinStep = 0.02;

}  // namespace

AdaptiveKappaResult personalize_kappa(const channel::ChannelMatrix& h,
                                      Watts power_budget,
                                      const channel::LinkBudget& budget,
                                      const AssignmentOptions& opts,
                                      const AdaptiveKappaConfig& cfg) {
  const std::size_t n = h.num_tx();
  AdaptiveKappaResult out;
  out.kappas.assign(n, cfg.initial_kappa);

  auto evaluate = [&](const std::vector<double>& kappas) {
    const auto ranking = rank_transmitters_per_tx(h, kappas);
    const auto res = assign_by_ranking(ranking, n, h.num_rx(),
                                       power_budget, budget, opts);
    ++out.evaluations;
    return std::pair{channel::sum_log_utility(h, res.allocation, budget),
                     res.allocation};
  };

  auto [best_utility, best_alloc] = evaluate(out.kappas);
  out.baseline_utility = best_utility;

  double step = cfg.step;
  for (std::size_t round = 0; round < cfg.max_rounds; ++round) {
    bool improved = false;
    for (std::size_t j = 0; j < n; ++j) {
      for (const double direction : {+1.0, -1.0}) {
        const double candidate = std::clamp(
            out.kappas[j] + direction * step, cfg.kappa_min, cfg.kappa_max);
        if (candidate == out.kappas[j]) continue;
        std::vector<double> trial = out.kappas;
        trial[j] = candidate;
        auto [utility, alloc] = evaluate(trial);
        if (utility > best_utility + 1e-12) {
          best_utility = utility;
          best_alloc = std::move(alloc);
          out.kappas = std::move(trial);
          improved = true;
          break;  // take the first improving direction for this TX
        }
      }
    }
    if (!improved) {
      step /= 2.0;
      if (step < kMinStep) break;
    }
  }

  out.allocation = std::move(best_alloc);
  out.utility = best_utility;
  return out;
}

}  // namespace densevlc::alloc
