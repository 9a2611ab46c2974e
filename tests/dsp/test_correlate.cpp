// Tests for correlation-based pattern detection.
#include "dsp/correlate.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace densevlc::dsp {
namespace {

TEST(Correlate, PatternLongerThanSignalIsEmpty) {
  const std::vector<double> signal{1.0};
  const std::vector<double> pattern{1.0, 2.0};
  EXPECT_FALSE(detect_pattern(signal, pattern, -2.0).has_value());
}

TEST(NormalizedCorrelate, PerfectMatchScoresOne) {
  const std::vector<double> pattern{1.0, -1.0, 1.0, 1.0, -1.0};
  std::vector<double> signal{0.0, 0.0};
  signal.insert(signal.end(), pattern.begin(), pattern.end());
  signal.insert(signal.end(), {0.0, 0.0});
  const auto peak = detect_pattern(signal, pattern, 0.5);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->index, 2u);
  EXPECT_NEAR(peak->score, 1.0, 1e-12);
}

TEST(NormalizedCorrelate, InvariantToGainAndOffset) {
  const std::vector<double> pattern{1.0, -1.0, 1.0, -1.0, 1.0, 1.0};
  std::vector<double> signal;
  for (double p : pattern) signal.push_back(3.7 + 0.01 * p);  // tiny + offset
  const auto peak = detect_pattern(signal, pattern, 0.5);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->index, 0u);
  EXPECT_NEAR(peak->score, 1.0, 1e-9);
}

TEST(NormalizedCorrelate, AntiCorrelatedScoresMinusOne) {
  const std::vector<double> pattern{1.0, -1.0, 1.0, -1.0};
  std::vector<double> signal;
  for (double p : pattern) signal.push_back(-p);
  const auto peak = detect_pattern(signal, pattern, -2.0);
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(peak->score, -1.0, 1e-12);
}

// A window or pattern with no variance scores exactly 0: the first
// position qualifies at threshold 0 and none at the next double up.
void expect_all_scores_zero(const std::vector<double>& signal,
                            const std::vector<double>& pattern) {
  const auto peak = detect_pattern(signal, pattern, 0.0);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->index, 0u);
  EXPECT_DOUBLE_EQ(peak->score, 0.0);
  EXPECT_FALSE(detect_pattern(signal, pattern,
                              std::numeric_limits<double>::denorm_min())
                   .has_value());
}

TEST(NormalizedCorrelate, FlatWindowScoresZero) {
  expect_all_scores_zero(std::vector<double>(10, 2.5),
                         {1.0, -1.0, 1.0, -1.0});
}

TEST(NormalizedCorrelate, FlatPatternScoresZero) {
  expect_all_scores_zero({1.0, -1.0, 1.0, -1.0, 1.0, -1.0},
                         std::vector<double>(4, 1.0));
}

TEST(DetectPattern, FindsEmbeddedPatternInNoise) {
  Rng rng{77};
  const std::vector<double> pattern{1, -1, 1, 1, -1, -1, 1, -1, 1, 1,
                                    -1, 1, -1, -1, 1, 1};
  std::vector<double> signal(200);
  for (double& s : signal) s = rng.gaussian(0.0, 0.3);
  const std::size_t at = 120;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    signal[at + i] += pattern[i];
  }
  const auto peak = detect_pattern(signal, pattern, 0.5);
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(static_cast<double>(peak->index), static_cast<double>(at), 1.0);
  EXPECT_GT(peak->score, 0.5);
}

TEST(DetectPattern, ReturnsNulloptBelowThreshold) {
  Rng rng{78};
  const std::vector<double> pattern{1, -1, 1, 1, -1, -1, 1, -1};
  std::vector<double> signal(100);
  for (double& s : signal) s = rng.gaussian(0.0, 1.0);
  EXPECT_FALSE(detect_pattern(signal, pattern, 0.99).has_value());
}

TEST(DetectPattern, PicksStrongestOfTwoCopies) {
  const std::vector<double> pattern{1, -1, 1, -1, 1, 1, -1, -1};
  std::vector<double> signal(64, 0.0);
  // Weak copy at 10 (damped + noise floor), exact copy at 40.
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    signal[10 + i] = 0.5 * pattern[i] + (i % 2 ? 0.3 : -0.3);
    signal[40 + i] = pattern[i];
  }
  const auto peak = detect_pattern(signal, pattern, 0.3);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->index, 40u);
}

}  // namespace
}  // namespace densevlc::dsp
