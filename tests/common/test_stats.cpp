// Tests for the descriptive-statistics helpers.
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace densevlc::stats {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> v;
  EXPECT_DOUBLE_EQ(mean(v), 0.0);
  EXPECT_DOUBLE_EQ(variance(v), 0.0);
  EXPECT_DOUBLE_EQ(median(v), 0.0);
  EXPECT_DOUBLE_EQ(min(v), 0.0);
  EXPECT_DOUBLE_EQ(max(v), 0.0);
}

TEST(Stats, VarianceUnbiased) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known dataset: population variance 4, sample variance 4 * 8/7.
  EXPECT_NEAR(variance(v), 4.0 * 8.0 / 7.0, 1e-12);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
}

TEST(Stats, QuantileClampsP) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 2.0), 3.0);
}

TEST(Stats, Ci95KnownFormula) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  const double expected = 1.96 * stddev(v) / std::sqrt(5.0);
  EXPECT_DOUBLE_EQ(ci95_halfwidth(v), expected);
}

TEST(Stats, HistogramBinsAndClamps) {
  const std::vector<double> v{-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = histogram(v, 0.0, 1.0, 2);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 2u);  // -1.0 clamps in, 0.1
  EXPECT_EQ(h.counts[1], 3u);  // 0.5, 0.9, 2.0 clamps in
  EXPECT_EQ(h.total, 5u);
  EXPECT_DOUBLE_EQ(h.probability(0), 0.4);
}

TEST(Stats, SummaryBundlesAllFields) {
  const std::vector<double> v{1.0, 2.0, 3.0};
  const auto s = summarize(v);
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

}  // namespace
}  // namespace densevlc::stats
