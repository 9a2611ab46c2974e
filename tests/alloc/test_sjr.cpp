// Tests for the SJR ranking heuristic (paper Algorithm 1).
#include "alloc/sjr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "alloc/assignment.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::alloc {
namespace {

channel::ChannelMatrix paper_channel() {
  return core::make_simulation_testbed().channel_for(
      scenario::fig7_rx_positions());
}

TEST(Sjr, MatrixDefinition) {
  // SJR_{i,j} = H^kappa / sum_j' H_{i,j'}.
  const channel::ChannelMatrix h{1, 2, {4e-7, 1e-7}};
  const auto sjr = sjr_matrix(h, 1.0);
  EXPECT_NEAR(sjr[0], 4e-7 / 5e-7, 1e-12);
  EXPECT_NEAR(sjr[1], 1e-7 / 5e-7, 1e-12);
  const auto sjr2 = sjr_matrix(h, 2.0);
  EXPECT_NEAR(sjr2[0], 4e-7 * 4e-7 / 5e-7, 1e-18);
}

TEST(Sjr, DeadTxScoresZero) {
  const channel::ChannelMatrix h{2, 2, {1e-6, 1e-7, 0.0, 0.0}};
  const auto sjr = sjr_matrix(h, 1.3);
  EXPECT_DOUBLE_EQ(sjr[2], 0.0);
  EXPECT_DOUBLE_EQ(sjr[3], 0.0);
}

TEST(Ranking, IsPermutationOfAllTxs) {
  const auto h = paper_channel();
  for (double kappa : {1.0, 1.2, 1.3, 1.5}) {
    const auto ranking = rank_transmitters(h, kappa);
    ASSERT_EQ(ranking.size(), 36u);
    std::vector<bool> seen(36, false);
    for (const auto& r : ranking) {
      EXPECT_FALSE(seen[r.tx]) << "TX " << r.tx << " ranked twice";
      seen[r.tx] = true;
      EXPECT_LT(r.rx, 4u);
    }
  }
}

TEST(Ranking, ScoresNonIncreasing) {
  const auto ranking = rank_transmitters(paper_channel(), 1.3);
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(ranking[i].sjr, ranking[i - 1].sjr + 1e-18);
  }
}

TEST(Ranking, BestChannelsRankFirst) {
  // The paper's Fig. 9 ordering: TX8 (idx 7) is RX1's first TX and TX10
  // (idx 9) is RX2's; both must appear in the first handful of ranks.
  const auto ranking = rank_transmitters(paper_channel(), 1.3);
  std::size_t rank_tx8 = 99;
  std::size_t rank_tx10 = 99;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i].tx == 7) rank_tx8 = i;
    if (ranking[i].tx == 9) rank_tx10 = i;
  }
  EXPECT_LT(rank_tx8, 8u);
  EXPECT_LT(rank_tx10, 8u);
  EXPECT_EQ(ranking[rank_tx8].rx, 0u);
  EXPECT_EQ(ranking[rank_tx10].rx, 1u);
}

TEST(Ranking, InterferingCentralTxRanksLate) {
  // Insight 3: a TX with similar gain toward several RXs (e.g. the grid
  // center, TX15/TX16-ish for the Fig. 7 layout) is deprioritized.
  const auto h = paper_channel();
  const auto ranking = rank_transmitters(h, 1.3);
  // Find the TX whose gain vector is most balanced across RXs.
  std::size_t most_balanced = 0;
  double best_ratio = 1e18;
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    double top = 0.0;
    double sum = 0.0;
    for (std::size_t k = 0; k < h.num_rx(); ++k) {
      top = std::max(top, h.gain(j, k));
      sum += h.gain(j, k);
    }
    if (sum <= 0.0) continue;
    const double ratio = top / sum;  // 1.0 = exclusive, 0.25 = balanced
    if (ratio < best_ratio) {
      best_ratio = ratio;
      most_balanced = j;
    }
  }
  std::size_t balanced_rank = 0;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    if (ranking[i].tx == most_balanced) balanced_rank = i;
  }
  EXPECT_GT(balanced_rank, 8u);
}

TEST(Ranking, HigherKappaFavorsOwnChannel) {
  // With larger kappa the first-ranked entries should have higher raw
  // gain toward their assigned RX on average.
  const auto h = paper_channel();
  auto mean_top_gain = [&](double kappa) {
    const auto ranking = rank_transmitters(h, kappa);
    double sum = 0.0;
    for (std::size_t i = 0; i < 8; ++i) {
      sum += h.gain(ranking[i].tx, ranking[i].rx);
    }
    return sum / 8.0;
  };
  EXPECT_GE(mean_top_gain(1.5), mean_top_gain(1.0) * 0.99);
}

TEST(Ranking, DeterministicTieBreaks) {
  const channel::ChannelMatrix h{3, 2,
                                 {1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6}};
  const auto a = rank_transmitters(h, 1.3);
  const auto b = rank_transmitters(h, 1.3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tx, b[i].tx);
    EXPECT_EQ(a[i].rx, b[i].rx);
  }
  // Lowest TX index wins ties.
  EXPECT_EQ(a[0].tx, 0u);
}

// Property sweep over kappa: ranking is always a permutation with
// monotone scores.
class KappaSweep : public ::testing::TestWithParam<double> {};

TEST_P(KappaSweep, StructuralInvariants) {
  const auto ranking = rank_transmitters(paper_channel(), GetParam());
  ASSERT_EQ(ranking.size(), 36u);
  std::vector<bool> seen(36, false);
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EXPECT_FALSE(seen[ranking[i].tx]);
    seen[ranking[i].tx] = true;
    if (i > 0) {
      EXPECT_LE(ranking[i].sjr, ranking[i - 1].sjr + 1e-18);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kappas, KappaSweep,
                         ::testing::Values(0.8, 1.0, 1.1, 1.2, 1.3, 1.4,
                                           1.5, 2.0));

}  // namespace
}  // namespace densevlc::alloc
