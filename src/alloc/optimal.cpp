#include "alloc/optimal.hpp"

#include <algorithm>
#include <cmath>

#include "alloc/assignment.hpp"
#include "common/contracts.hpp"

namespace densevlc::alloc {
namespace {

/// Utility value with the same floor as channel::sum_log_utility.
double utility_of(const channel::ChannelMatrix& h,
                  const channel::Allocation& alloc,
                  const channel::LinkBudget& budget) {
  return channel::sum_log_utility(h, alloc, budget);
}

}  // namespace

void utility_gradient(const channel::ChannelMatrix& h,
                      const channel::Allocation& alloc,
                      const channel::LinkBudget& budget,
                      std::vector<double>& grad_out) {
  DVLC_EXPECT(alloc.num_tx() == h.num_tx() && alloc.num_rx() == h.num_rx(),
              "allocation shape must match the channel matrix");
  const std::size_t n = h.num_tx();
  const std::size_t m = h.num_rx();
  grad_out.assign(n * m, 0.0);

  const double scale = budget.responsivity_a_per_w *
                       budget.wall_plug_efficiency *
                       budget.dynamic_resistance_ohm;
  const double noise = budget.noise_psd_a2_per_hz * budget.bandwidth_hz;
  const double b = budget.bandwidth_hz;
  const double ln2 = std::log(2.0);

  // contributions[i][k] = scale * sum_j H_{j,i} (I^{j,k}/2)^2.
  std::vector<double> contrib(m * m, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      const double half = alloc.swing(j, k) / 2.0;
      if (half <= 0.0) continue;
      const double q = half * half;
      for (std::size_t i = 0; i < m; ++i) {
        contrib[i * m + k] += scale * h.gain(j, i) * q;
      }
    }
  }

  // Per-RX pieces of the objective and its chain-rule factors.
  std::vector<double> signal(m), jam(m), denom(m), sinr_v(m), tput(m),
      dudt(m);
  for (std::size_t i = 0; i < m; ++i) {
    signal[i] = contrib[i * m + i];
    double j_acc = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      if (k != i) j_acc += contrib[i * m + k];
    }
    jam[i] = j_acc;
    denom[i] = noise + j_acc * j_acc;
    sinr_v[i] = denom[i] > 0.0 ? signal[i] * signal[i] / denom[i] : 0.0;
    tput[i] = b * std::log2(1.0 + sinr_v[i]);
    // d/dT of [log(max(T,1)) + min(0, T-1)]: 1/T above the floor, 1 below.
    dudt[i] = tput[i] > 1.0 ? 1.0 / tput[i] : 1.0;
  }

  // dU/dq_{j,k} then chain through dq/dI = I/2.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      const double i_jk = alloc.swing(j, k);
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double h_ji = h.gain(j, i);
        if (h_ji <= 0.0) continue;
        double dsinr;
        if (k == i) {
          dsinr = 2.0 * signal[i] * scale * h_ji / denom[i];
        } else {
          dsinr = -2.0 * jam[i] * signal[i] * signal[i] * scale * h_ji /
                  (denom[i] * denom[i]);
        }
        const double dtds = (b / ln2) / (1.0 + sinr_v[i]);
        acc += dudt[i] * dtds * dsinr;
      }
      grad_out[j * m + k] = acc * (i_jk / 2.0);
    }
  }
}

void project_feasible(channel::Allocation& alloc, Watts power_budget,
                      Amperes max_swing,
                      const channel::LinkBudget& budget) {
  DVLC_EXPECT(power_budget >= Watts{0.0},
              "power budget must be non-negative");
  DVLC_EXPECT(max_swing >= Amperes{0.0}, "max swing must be non-negative");
  const double power_budget_w = power_budget.value();
  const double max_swing_a = max_swing.value();
  const std::size_t n = alloc.num_tx();
  const std::size_t m = alloc.num_rx();
  // Nonnegativity.
  for (double& v : alloc.data()) v = std::max(0.0, v);
  // Per-TX row cap.
  for (std::size_t j = 0; j < n; ++j) {
    const double total = alloc.tx_total_swing(j).value();
    if (total > max_swing_a && total > 0.0) {
      const double f = max_swing_a / total;
      for (std::size_t k = 0; k < m; ++k) {
        alloc.set_swing(j, k, alloc.swing(j, k) * f);
      }
    }
  }
  // Total power cap: power is quadratic in a global scale, so scale by
  // sqrt(budget / power).
  const double power = channel::total_comm_power(alloc, budget).value();
  if (power > power_budget_w && power > 0.0) {
    const double f = std::sqrt(power_budget_w / power);
    for (double& v : alloc.data()) v *= f;
  }
}

namespace {

/// One projected-gradient run from a feasible starting point.
OptimalResult run_from(const channel::ChannelMatrix& h,
                       channel::Allocation start, Watts power_budget,
                       const channel::LinkBudget& budget,
                       const OptimalSolverConfig& cfg) {
  const std::size_t n = h.num_tx();
  const std::size_t m = h.num_rx();
  project_feasible(start, power_budget, Amperes{cfg.max_swing_a}, budget);

  channel::Allocation current = start;
  double current_utility = utility_of(h, current, budget);
  double step = cfg.initial_step;
  std::vector<double> grad;
  std::size_t iters = 0;

  for (std::size_t it = 0; it < cfg.max_iterations; ++it) {
    ++iters;
    utility_gradient(h, current, budget, grad);
    // Normalize the gradient so `step` is a length in amperes.
    double norm = 0.0;
    for (double g : grad) norm += g * g;
    norm = std::sqrt(norm);
    if (norm < 1e-14) break;

    // Backtracking line search on the projected trial point.
    bool improved = false;
    while (step >= cfg.min_step) {
      channel::Allocation trial = current;
      auto& data = trial.data();
      for (std::size_t idx = 0; idx < n * m; ++idx) {
        data[idx] += step * grad[idx] / norm;
      }
      project_feasible(trial, power_budget, Amperes{cfg.max_swing_a}, budget);
      const double trial_utility = utility_of(h, trial, budget);
      if (trial_utility > current_utility + 1e-12) {
        current = std::move(trial);
        current_utility = trial_utility;
        improved = true;
        step *= 1.5;  // expand while the going is good
        break;
      }
      step *= 0.5;
    }
    if (!improved) break;
  }

  OptimalResult out;
  out.allocation = std::move(current);
  out.utility = current_utility;
  out.power_used_w = channel::total_comm_power(out.allocation, budget).value();
  out.iterations = iters;
  return out;
}

}  // namespace

PolishResult polish_binary(const channel::ChannelMatrix& h,
                           const channel::Allocation& start,
                           Watts power_budget,
                           const channel::LinkBudget& budget,
                           Amperes max_swing) {
  const double power_budget_w = power_budget.value();
  const double max_swing_a = max_swing.value();
  DVLC_EXPECT(start.num_tx() == h.num_tx() && start.num_rx() == h.num_rx(),
              "allocation shape must match the channel matrix");
  const std::size_t n = start.num_tx();
  const std::size_t m = start.num_rx();
  PolishResult out;
  out.allocation = start;

  // Visit TXs with fractional total swing, weakest first.
  std::vector<std::pair<double, std::size_t>> fractional;
  for (std::size_t j = 0; j < n; ++j) {
    const double total = out.allocation.tx_total_swing(j).value();
    if (total > 1e-9 && total < max_swing_a - 1e-9) {
      fractional.emplace_back(total, j);
    }
  }
  std::sort(fractional.begin(), fractional.end());

  double utility = utility_of(h, out.allocation, budget);
  for (const auto& [total, j] : fractional) {
    // Dominant RX of this TX's current (fractional) service.
    std::size_t dominant = 0;
    for (std::size_t k = 1; k < m; ++k) {
      if (out.allocation.swing(j, k) > out.allocation.swing(j, dominant)) {
        dominant = k;
      }
    }

    // Candidate A: demote to illumination-only.
    channel::Allocation down = out.allocation;
    for (std::size_t k = 0; k < m; ++k) down.set_swing(j, k, 0.0);
    const double u_down = utility_of(h, down, budget);

    // Candidate B: promote to full swing for the dominant RX (only if
    // the budget allows).
    double u_up = -1e300;
    channel::Allocation up = out.allocation;
    for (std::size_t k = 0; k < m; ++k) up.set_swing(j, k, 0.0);
    up.set_swing(j, dominant, max_swing_a);
    if (channel::total_comm_power(up, budget).value() <=
        power_budget_w + 1e-12) {
      u_up = utility_of(h, up, budget);
    }

    if (u_up >= u_down && u_up > -1e299) {
      out.allocation = std::move(up);
      utility = u_up;
      ++out.rounded_up;
    } else {
      out.allocation = std::move(down);
      utility = u_down;
      ++out.rounded_down;
    }
  }

  out.utility = utility;
  out.power_used_w = channel::total_comm_power(out.allocation, budget).value();
  return out;
}

OptimalResult solve_optimal(const channel::ChannelMatrix& h,
                            Watts power_budget,
                            const channel::LinkBudget& budget,
                            const OptimalSolverConfig& cfg) {
  const std::size_t n = h.num_tx();
  const std::size_t m = h.num_rx();
  Rng rng{cfg.seed};

  std::vector<channel::Allocation> starts;

  // Heuristic seeds across the kappa sweep (also serve as lower bounds).
  for (double kappa : {1.0, 1.2, 1.3, 1.5}) {
    AssignmentOptions opts;
    opts.max_swing_a = cfg.max_swing_a;
    opts.allow_partial_tail = true;
    starts.push_back(
        heuristic_allocate(h, kappa, power_budget, budget, opts)
            .allocation);
  }

  // A small uniform seed: every TX serves its best RX a little. This gives
  // the gradient a foothold everywhere (the all-zero point is stationary).
  {
    channel::Allocation uniform{n, m};
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t best_rx = 0;
      double best_gain = -1.0;
      for (std::size_t k = 0; k < m; ++k) {
        if (h.gain(j, k) > best_gain) {
          best_gain = h.gain(j, k);
          best_rx = k;
        }
      }
      if (best_gain > 0.0) uniform.set_swing(j, best_rx, 0.1 * cfg.max_swing_a);
    }
    starts.push_back(std::move(uniform));
  }

  // Random feasible seeds.
  for (std::size_t s = 0; s < cfg.random_starts; ++s) {
    channel::Allocation random{n, m};
    for (std::size_t j = 0; j < n; ++j) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
      random.set_swing(j, k, rng.uniform(0.0, cfg.max_swing_a));
    }
    starts.push_back(std::move(random));
  }

  // Run every start in order; the first strictly-better run wins, so ties
  // resolve to the lower start index.
  OptimalResult best;
  best.utility = -1e300;
  std::size_t total_iters = 0;
  for (auto& start : starts) {
    OptimalResult candidate =
        run_from(h, std::move(start), power_budget, budget, cfg);
    total_iters += candidate.iterations;
    if (candidate.utility > best.utility) best = std::move(candidate);
  }
  best.iterations = total_iters;
  return best;
}

}  // namespace densevlc::alloc
