// Personalized and adaptive kappa (paper Sec. 9, "Personalized and
// adaptive kappa").
//
// The baseline heuristic scores every TX with a single global kappa. In
// a real cell-free system TXs sit in very different interference
// situations, so the paper suggests per-TX kappas could push the
// heuristic closer to the optimum. This module implements that idea:
//
//   SJR_{i,j} = H_{i,j}^{kappa_i} / sum_{j'} H_{i,j'}
//
// (rank_transmitters_per_tx in sjr.hpp) with kappa_i tuned by
// deterministic coordinate descent — each round perturbs one TX's kappa
// up/down by a step and keeps the change when the resulting end-to-end
// allocation improves the utility under the given power budget. The
// search is budget-aware: it optimizes exactly what the controller will
// deploy.
#pragma once

#include <cstddef>
#include <vector>

#include "alloc/assignment.hpp"
#include "channel/model.hpp"

namespace densevlc::alloc {

/// Coordinate-descent search configuration.
struct AdaptiveKappaConfig {
  double initial_kappa = 1.3;  ///< starting point for every TX
  double step = 0.15;          ///< initial perturbation size
  double kappa_min = 0.5;      ///< search box
  double kappa_max = 2.5;
  std::size_t max_rounds = 8;  ///< full passes over the TXs
};

/// Result of the personalization search.
struct AdaptiveKappaResult {
  std::vector<double> kappas;       ///< per-TX, length num_tx
  channel::Allocation allocation;   ///< allocation under those kappas
  double utility = 0.0;
  double baseline_utility = 0.0;    ///< uniform initial_kappa for reference
  std::size_t evaluations = 0;      ///< allocations scored during search
};

/// Runs the search for the given channel and power budget.
AdaptiveKappaResult personalize_kappa(const channel::ChannelMatrix& h,
                                      Watts power_budget,
                                      const channel::LinkBudget& budget,
                                      const AssignmentOptions& opts,
                                      const AdaptiveKappaConfig& cfg = {});

}  // namespace densevlc::alloc
