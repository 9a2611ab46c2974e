// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/arena.hpp"
#include "dsp/dsp_kernels.hpp"

namespace densevlc::dsp {

namespace {

// Stages `pattern` into the scratch unless its bits are the template
// staged last: the mean-removed copy and its energy, and the run-length
// form the pruned search bounds with. With S the signal's running sums,
// sum_j x[i+j] pat[j] = sum_t w_t S[i + at_t], one tap per run boundary
// (w_t = value before the boundary - value after it).
void stage_template(std::span<const double> pattern,
                    CorrelateScratch& scratch) {
  const std::size_t m = pattern.size();
  if (scratch.source.size() == m &&
      std::memcmp(scratch.source.data(), pattern.data(),
                  m * sizeof(double)) == 0) {
    return;
  }
  double pat_mean = 0.0;
  for (double p : pattern) pat_mean += p;
  pat_mean /= static_cast<double>(m);
  arena_resize(scratch.pattern, m);
  std::vector<double>& pat = scratch.pattern;
  double pat_energy = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    pat[j] = pattern[j] - pat_mean;
    pat_energy += pat[j] * pat[j];
  }

  arena_resize(scratch.tap_at, m + 1);
  arena_resize(scratch.tap_w, m + 1);
  std::size_t taps = 0;
  double w_abs = 0.0;
  double pat_abs = 0.0;
  double pat_sum = 0.0;
  double pat_max = 0.0;
  double prev = 0.0;
  for (std::size_t j = 0; j <= m; ++j) {
    const double v = j < m ? pat[j] : 0.0;
    if (j == 0 || j == m || v != prev) {
      scratch.tap_at[taps] = j;
      scratch.tap_w[taps] = prev - v;
      w_abs += std::fabs(scratch.tap_w[taps]);
      ++taps;
    }
    prev = v;
    if (j < m) {
      pat_abs += std::fabs(v);
      pat_sum += v;
      pat_max = std::max(pat_max, std::fabs(v));
    }
  }
  arena_resize(scratch.tap_at, taps);
  arena_resize(scratch.tap_w, taps);
  scratch.pat_sumsq = pat_energy;
  scratch.pat_abs = pat_abs;
  scratch.pat_sum = pat_sum;
  scratch.pat_max = pat_max;
  scratch.w_abs = w_abs;
  arena_resize(scratch.source, m);
  std::copy(pattern.begin(), pattern.end(), scratch.source.begin());
}

// What the bound needs of the signal beyond its running sums.
struct SignalTotals {
  double abs_total = 0.0;   // sum of |signal[k]|
  double prefix_max = 0.0;  // largest |running sum|
};

// The two serial recurrences in one pass over the signal: the rolling
// window sums of every position, into means (sums) and vars (sums of
// squares) for window_moments, and the running sums into prefix. Each
// recurrence keeps its own operation order, so every mean and variance
// is the reference value on either backend.
SignalTotals signal_sums(std::span<const double> signal, std::size_t m,
                         CorrelateScratch& scratch) {
  const std::size_t len = signal.size();
  const std::size_t n = len - m + 1;
  arena_resize(scratch.means, n);
  arena_resize(scratch.vars, n);
  arena_resize(scratch.prefix, len + 1);
  double* const sums = scratch.means.data();
  double* const squares = scratch.vars.data();
  double* const prefix = scratch.prefix.data();
  const double* const x = signal.data();
  double win_sum = 0.0;
  double win_sq = 0.0;
  double run = 0.0;
  double abs_total = 0.0;
  double prefix_max = 0.0;
  prefix[0] = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    win_sum += x[j];
    win_sq += x[j] * x[j];
    run += x[j];
    abs_total += std::fabs(x[j]);
    prefix_max = std::max(prefix_max, std::fabs(run));
    prefix[j + 1] = run;
  }
  // Sample i + m enters the window as sample i leaves it, and extends the
  // running sums.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    sums[i] = win_sum;
    squares[i] = win_sq;
    const double in = x[i + m];
    const double out = x[i];
    win_sum += in - out;
    win_sq += in * in - out * out;
    run += in;
    abs_total += std::fabs(in);
    prefix_max = std::max(prefix_max, std::fabs(run));
    prefix[i + m + 1] = run;
  }
  sums[n - 1] = win_sum;
  squares[n - 1] = win_sq;
  return SignalTotals{abs_total, prefix_max};
}

// The reference score of the window starting at `window`: the dot
// product accumulated in pattern order, normalized by
// sqrt(var * pat_energy); 0 when the window has no variance.
double exact_score(const double* window, std::span<const double> pat,
                   double mean, double var, double pat_energy) {
  if (!(var > 1e-30)) return 0.0;
  double dot = 0.0;
  for (std::size_t j = 0; j < pat.size(); ++j) {
    dot += (window[j] - mean) * pat[j];
  }
  return dot / std::sqrt(var * pat_energy);
}

// gamma_k = k u / (1 - k u): the standard bound on the relative error of
// k successive floating-point operations (u = unit roundoff).
double gamma_k(std::size_t k) {
  const double ku =
      static_cast<double>(k) * (std::numeric_limits<double>::epsilon() / 2);
  return ku / (1.0 - ku);
}

}  // namespace

std::optional<PeakDetection> detect_pattern_into(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold, CorrelateScratch& scratch) {
  scratch.rescored = 0;
  if (pattern.empty() || signal.size() < pattern.size()) return std::nullopt;
  const std::size_t m = pattern.size();
  const std::size_t n = signal.size() - m + 1;
  stage_template(pattern, scratch);
  const double pat_energy = scratch.pat_sumsq;
  if (pat_energy <= 0.0) {
    // Every position scores 0, so the first one wins if 0 qualifies.
    if (0.0 >= threshold) return PeakDetection{0, 0.0};
    return std::nullopt;
  }
  const SignalTotals totals = signal_sums(signal, m, scratch);
  const std::vector<double>& pat = scratch.pattern;
  const std::size_t taps = scratch.tap_at.size();
  const std::size_t len = signal.size();

  // Bound on |approx_i - dot_i|, where dot_i is the reference kernel's
  // floating-point dot product (derivation: docs/architecture.md,
  // "Bit-identity policy"). Every term is an upper bound built from the
  // standard gamma_k summation bounds; the 1e-9 relative slack covers
  // the rounding of these few nonnegative sums and products themselves.
  const double u = std::numeric_limits<double>::epsilon() / 2;
  const double abs_ub = totals.abs_total / (1.0 - gamma_k(len));
  const double w_ub = scratch.w_abs / (1.0 - gamma_k(taps));
  const double pat_abs_ub = scratch.pat_abs / (1.0 - gamma_k(m));
  const double sigma = gamma_k(len) * abs_ub;  // any running sum's error
  const double prefix_max = totals.prefix_max;
  const double pat_max = scratch.pat_max;
  const double slack = 1.0 + 1e-9;
  const double c0 =
      slack * (w_ub * (sigma + 2.0 * u * (prefix_max + sigma) +
                       gamma_k(taps) * prefix_max) +
               gamma_k(m + 1) * pat_max * abs_ub +
               static_cast<double>(m + taps + 2) *
                   std::numeric_limits<double>::denorm_min());
  const double c1 =
      slack * (std::fabs(scratch.pat_sum) + gamma_k(m) * pat_abs_ub +
               gamma_k(m + 1) * pat_max * static_cast<double>(m));

  // Score interval per position. With delta >= |approx - dot|, rounding
  // is monotone, so fl(fl(approx +- delta) / den) brackets the reference
  // fl(dot / den) computed with the very same den. Zero-variance windows
  // score exactly 0.
  arena_resize(scratch.bounds, n);
  double* bounds = scratch.bounds.data();
  double lower_max = 0.0;
  if (simd::use_vector_kernels()) {
    detail::tap_sums_vec(scratch.prefix.data(), scratch.tap_at.data(),
                         scratch.tap_w.data(), taps, bounds, n);
    lower_max = detail::search_bounds_vec(scratch.means.data(),
                                          scratch.vars.data(), bounds, n, m,
                                          c0, c1, pat_energy);
  } else {
    detail::tap_sums_kernel<simd::ScalarBackend>(
        scratch.prefix.data(), scratch.tap_at.data(), scratch.tap_w.data(),
        taps, bounds, n);
    lower_max = detail::search_bounds_kernel<simd::ScalarBackend>(
        scratch.means.data(), scratch.vars.data(), bounds, n, m, c0, c1,
        pat_energy);
  }

  // A position whose upper bound is below the threshold, or below some
  // position's lower bound, can neither qualify nor be the maximum; the
  // rest are scored exactly, in index order, under the full scan's rule
  // (>= threshold, strictly greater than the best so far: first max wins).
  double cutoff = threshold;
  if (lower_max > cutoff) cutoff = lower_max;
  std::optional<PeakDetection> best;
  for (std::size_t i = 0; i < n; ++i) {
    const double hi = bounds[i];
    if (hi < cutoff) continue;
    ++scratch.rescored;
    const double score =
        exact_score(signal.data() + i, pat, scratch.means[i],
                    scratch.vars[i], pat_energy);
    if (score >= threshold && (!best || score > best->score)) {
      best = PeakDetection{i, score};
    }
  }
  return best;
}

std::optional<PeakDetection> detect_pattern(std::span<const double> signal,
                                            std::span<const double> pattern,
                                            double threshold) {
  CorrelateScratch scratch;
  return detect_pattern_into(signal, pattern, threshold, scratch);
}

}  // namespace densevlc::dsp
