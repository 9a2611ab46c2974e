// Tests for the SJR ranking heuristic (paper Algorithm 1).
#include "alloc/sjr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "alloc/adaptive_kappa.hpp"
#include "alloc/assignment.hpp"
#include "common/rng.hpp"
#include "scenario/scenarios.hpp"

namespace densevlc::alloc {
namespace {

channel::ChannelMatrix paper_channel() {
  return core::make_simulation_testbed().channel_for(
      scenario::fig7_rx_positions());
}

TEST(Sjr, MatrixDefinition) {
  // SJR_{i,j} = H^kappa / sum_j' H_{i,j'}; a TX ranks at its row's best.
  const channel::ChannelMatrix h{1, 2, {1e-7, 4e-7}};
  const auto ranking = rank_transmitters(h, 1.0);
  EXPECT_EQ(ranking[0].rx, 1u);
  EXPECT_NEAR(ranking[0].sjr, 4e-7 / 5e-7, 1e-12);
  const auto ranking2 = rank_transmitters(h, 2.0);
  EXPECT_NEAR(ranking2[0].sjr, 4e-7 * 4e-7 / 5e-7, 1e-18);
}

TEST(Sjr, DeadTxScoresZero) {
  const channel::ChannelMatrix h{2, 2, {1e-6, 1e-7, 0.0, 0.0}};
  const auto ranking = rank_transmitters(h, 1.3);
  EXPECT_EQ(ranking[1].tx, 1u);
  EXPECT_DOUBLE_EQ(ranking[1].sjr, 0.0);
}

void expect_permutation(const std::vector<RankedTx>& ranking,
                        std::size_t num_tx, std::size_t num_rx) {
  ASSERT_EQ(ranking.size(), num_tx);
  std::vector<bool> seen(num_tx, false);
  for (const auto& r : ranking) {
    ASSERT_LT(r.tx, num_tx);
    EXPECT_FALSE(seen[r.tx]) << "TX " << r.tx << " ranked twice";
    seen[r.tx] = true;
    EXPECT_LT(r.rx, num_rx);
  }
}

TEST(Ranking, IsPermutationOfAllTxs) {
  const auto h = paper_channel();
  for (double kappa : {1.0, 1.2, 1.3, 1.5}) {
    expect_permutation(rank_transmitters(h, kappa), 36, 4);
  }
  // A +inf gain scores NaN (inf / inf): with one RX the whole row is NaN,
  // so no score of that TX ever beats another. It must still be ranked,
  // once, behind every TX with a real score.
  const double inf = std::numeric_limits<double>::infinity();
  const channel::ChannelMatrix h_inf{3, 1, {1e-6, inf, 2e-6}};
  const auto ranking = rank_transmitters(h_inf, 1.3);
  expect_permutation(ranking, 3, 1);
  EXPECT_EQ(ranking[0].tx, 2u);
  EXPECT_EQ(ranking[1].tx, 0u);
  EXPECT_EQ(ranking[2].tx, 1u);
  expect_permutation(rank_transmitters_per_tx(h_inf, {1.3, 1.3, 1.3}), 3, 1);
}

// Algorithm 1 as first written: N rounds, each a global argmax over the
// unused TXs of the SJR matrix, scored with kappas[tx]. Kept verbatim as
// the reference for the single-pass ranking.
std::vector<RankedTx> argmax_loop_reference(const channel::ChannelMatrix& h,
                                            const std::vector<double>& kappas) {
  const std::size_t n = h.num_tx();
  const std::size_t m = h.num_rx();
  std::vector<double> sjr(n * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) row_sum += h.gain(i, j);
    if (row_sum <= 0.0) continue;
    for (std::size_t j = 0; j < m; ++j) {
      const double gain = h.gain(i, j);
      sjr[i * m + j] =
          gain > 0.0 ? std::pow(gain, kappas[i]) / row_sum : 0.0;
    }
  }
  std::vector<RankedTx> ranking;
  ranking.reserve(n);
  std::vector<bool> used(n, false);
  for (std::size_t round = 0; round < n; ++round) {
    std::size_t best_tx = 0;
    std::size_t best_rx = 0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      for (std::size_t j = 0; j < m; ++j) {
        if (sjr[i * m + j] > best_score) {
          best_score = sjr[i * m + j];
          best_tx = i;
          best_rx = j;
        }
      }
    }
    used[best_tx] = true;
    ranking.push_back({best_tx, best_rx, best_score});
  }
  return ranking;
}

void expect_same_ranking(const std::vector<RankedTx>& got,
                         const std::vector<RankedTx>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].tx, want[r].tx) << "rank " << r;
    EXPECT_EQ(got[r].rx, want[r].rx) << "rank " << r;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r].sjr),
              std::bit_cast<std::uint64_t>(want[r].sjr))
        << "rank " << r;
  }
}

TEST(Ranking, MatchesArgmaxLoop) {
  Rng rng{0x5123};
  // A small pool of gains so rows and columns repeat values (score ties).
  const std::vector<double> pool{0.0, 1e-7, 2.5e-7, 1e-6, 3e-6};
  std::size_t cases = 0;
  for (std::size_t n : {1u, 16u, 36u, 64u}) {
    for (std::size_t m = 1; m <= 10; ++m) {
      for (int variant = 0; variant < 5; ++variant) {
        SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m) +
                     " variant=" + std::to_string(variant));
        std::vector<double> gains(n * m);
        for (std::size_t e = 0; e < gains.size(); ++e) {
          switch (variant) {
            case 0:  // distinct finite gains
              gains[e] = rng.uniform(0.0, 1e-5);
              break;
            case 1:  // duplicated gains: ties within and across rows
              gains[e] = pool[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(pool.size()) - 1))];
              break;
            case 2:  // every third row dark
              gains[e] = (e / m) % 3 == 0 ? 0.0 : rng.uniform(0.0, 1e-5);
              break;
            case 3:  // negative gains mixed in
              gains[e] = rng.uniform(-1e-5, 1e-5);
              break;
            default:  // identical rows: every score ties
              gains[e] = pool[1 + e % m % 3];
              break;
          }
        }
        const channel::ChannelMatrix h{n, m, gains};
        for (double kappa : {0.0, 0.8, 1.3, 2.0}) {
          const std::vector<double> uniform(n, kappa);
          expect_same_ranking(rank_transmitters(h, kappa),
                              argmax_loop_reference(h, uniform));
        }
        std::vector<double> per_tx(n);
        for (double& k : per_tx) k = rng.uniform(0.5, 2.5);
        expect_same_ranking(rank_transmitters_per_tx(h, per_tx),
                            argmax_loop_reference(h, per_tx));
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 200u);
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
