// Descriptive statistics used by the evaluation harness.
//
// The paper reports means with 95% confidence intervals (Fig. 8), medians
// (Table 4, Fig. 12), empirical CDFs (Fig. 10) and histograms (Fig. 11).
// These helpers compute exactly those summaries from sample vectors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace densevlc::stats {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> samples);

/// Unbiased sample variance (n-1 denominator). Returns 0 for n < 2.
double variance(std::span<const double> samples);

/// Sample standard deviation.
double stddev(std::span<const double> samples);

/// Median (average of middle pair for even n). Returns 0 for empty input.
double median(std::span<const double> samples);

/// p-quantile in [0,1] by linear interpolation between order statistics
/// (type-7, the numpy/Matlab default). Returns 0 for empty input.
double quantile(std::span<const double> samples, double p);

/// Half-width of the normal-approximation 95% confidence interval of the
/// mean: 1.96 * s / sqrt(n). Returns 0 for n < 2.
double ci95_halfwidth(std::span<const double> samples);

/// Jain's fairness index (sum x)^2 / (n * sum x^2) in (0, 1]; 1 is a
/// perfectly even split. Returns 0 for empty or all-zero input.
double jain_index(std::span<const double> samples);

/// Minimum value; 0 for empty input.
double min(std::span<const double> samples);

/// Maximum value; 0 for empty input.
double max(std::span<const double> samples);

/// A histogram over equal-width bins spanning [lo, hi].
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  double bin_width = 0.0;
  std::vector<std::size_t> counts;  ///< one entry per bin
  std::size_t total = 0;            ///< number of binned samples

  /// Center of bin i (for plotting).
  double bin_center(std::size_t i) const {
    return lo + (static_cast<double>(i) + 0.5) * bin_width;
  }
  /// Fraction of samples in bin i (probability, as Fig. 11 plots).
  double probability(std::size_t i) const {
    return total == 0 ? 0.0
                      : static_cast<double>(counts[i]) /
                            static_cast<double>(total);
  }
};

/// Builds a histogram with `bins` equal-width bins over [lo, hi].
/// Samples outside the range clamp into the edge bins.
Histogram histogram(std::span<const double> samples, double lo, double hi,
                    std::size_t bins);

/// Summary bundle convenient for table rows.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double ci95 = 0.0;  ///< 95% CI half-width of the mean
};

/// Computes all Summary fields in one pass over a copy of the samples.
Summary summarize(std::span<const double> samples);

}  // namespace densevlc::stats
