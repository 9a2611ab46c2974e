#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace densevlc::stats {

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double variance(std::span<const double> samples) {
  if (samples.size() < 2) return 0.0;
  const double m = mean(samples);
  double acc = 0.0;
  for (double s : samples) acc += (s - m) * (s - m);
  return acc / static_cast<double>(samples.size() - 1);
}

double stddev(std::span<const double> samples) {
  return std::sqrt(variance(samples));
}

double median(std::span<const double> samples) {
  return quantile(samples, 0.5);
}

double quantile(std::span<const double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 1.0);
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double ci95_halfwidth(std::span<const double> samples) {
  if (samples.size() < 2) return 0.0;
  return 1.96 * stddev(samples) /
         std::sqrt(static_cast<double>(samples.size()));
}

double jain_index(std::span<const double> samples) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double v : samples) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(samples.size()) * sum_sq);
}

double min(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return *std::min_element(samples.begin(), samples.end());
}

double max(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return *std::max_element(samples.begin(), samples.end());
}

Histogram histogram(std::span<const double> samples, double lo, double hi,
                    std::size_t bins) {
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins == 0 ? 1 : bins, 0);
  h.bin_width = (hi - lo) / static_cast<double>(h.counts.size());
  if (h.bin_width <= 0.0) h.bin_width = 1.0;
  for (double s : samples) {
    auto idx = static_cast<std::ptrdiff_t>((s - lo) / h.bin_width);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(h.counts.size()) - 1);
    ++h.counts[static_cast<std::size_t>(idx)];
    ++h.total;
  }
  return h;
}

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.n = samples.size();
  s.mean = mean(samples);
  s.stddev = stddev(samples);
  s.median = median(samples);
  s.min = min(samples);
  s.max = max(samples);
  s.ci95 = ci95_halfwidth(samples);
  return s;
}

}  // namespace densevlc::stats
