// Continuous solver for the power-allocation program (paper Eq. 5-7).
//
//   maximize   sum_i log(B log2(1 + SINR_i))
//   over       I^{j,k} >= 0
//   subject to sum_k I^{j,k} <= Isw,max            (per TX)
//              sum_j r (sum_k I^{j,k} / 2)^2 <= P  (total budget)
//
// The paper solves this with Matlab's fmincon (165 s for 36x4). We use
// multi-start projected gradient ascent with an analytic gradient and
// backtracking line search: gradients of the SINR expression are cheap in
// closed form, and the feasible set admits a fast approximate projection
// (clamp to the nonnegative orthant, rescale over-long rows, rescale
// everything when the power cap is exceeded — each step only ever shrinks
// the iterate, so feasibility is preserved). Heuristic solutions for a
// sweep of kappa values seed some of the starts, guaranteeing the solver
// never returns less utility than the heuristic.
#pragma once

#include <cstddef>

#include "channel/model.hpp"
#include "common/rng.hpp"

namespace densevlc::alloc {

/// Solver knobs. Defaults are tuned for the 36x4 evaluation setup.
struct OptimalSolverConfig {
  std::size_t max_iterations = 400;   ///< gradient steps per start
  double max_swing_a = 0.9;           ///< Isw,max
  std::uint64_t seed = 0x5EEDBEEF;    ///< randomness for the starts
};

/// Solution bundle.
struct OptimalResult {
  channel::Allocation allocation;
  double utility = 0.0;       ///< achieved sum-log objective
  double power_used_w = 0.0;  ///< achieved P_C,tot
  std::size_t iterations = 0; ///< gradient steps across all starts
};

/// Solves Eq. (5)-(7) for the given channel and power budget.
OptimalResult solve_optimal(const channel::ChannelMatrix& h,
                            Watts power_budget,
                            const channel::LinkBudget& budget,
                            const OptimalSolverConfig& cfg = {});

/// Analytic gradient of the utility with respect to every swing entry
/// (row-major N x M). Exposed for tests (finite-difference verification).
void utility_gradient(const channel::ChannelMatrix& h,
                      const channel::Allocation& alloc,
                      const channel::LinkBudget& budget,
                      std::vector<double>& grad_out);

/// Projects `alloc` onto the feasible set in place (nonnegativity, per-TX
/// row cap, total power cap). Exposed for tests.
void project_feasible(channel::Allocation& alloc, Watts power_budget,
                      Amperes max_swing, const channel::LinkBudget& budget);

/// Result of a binary-rounding polish pass.
struct PolishResult {
  channel::Allocation allocation;
  double utility = 0.0;
  double power_used_w = 0.0;
  std::size_t rounded_up = 0;    ///< TXs promoted to full swing
  std::size_t rounded_down = 0;  ///< TXs demoted to zero
};

/// Implements Insight 2 as a post-pass: every TX with fractional total
/// swing is rounded to either zero or full swing toward its dominant RX —
/// whichever change does not reduce utility while staying within the
/// power budget. TXs are visited in ascending total-swing order so weak
/// fractional assignments are resolved first. The result is an
/// allocation in which every TX is binary (illumination-only or
/// full-swing), as the practical DenseVLC hardware requires.
PolishResult polish_binary(const channel::ChannelMatrix& h,
                           const channel::Allocation& start,
                           Watts power_budget,
                           const channel::LinkBudget& budget,
                           Amperes max_swing = Amperes{0.9});

}  // namespace densevlc::alloc
