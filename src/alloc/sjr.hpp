// Signal-to-Jamming-Ratio ranking heuristic (paper Sec. 5, Algorithm 1).
//
// The heuristic scores every (TX, RX) pair with
//
//   SJR_{i,j} = H_{i,j}^kappa / sum_{j'} H_{i,j'}
//
// where kappa tunes how much a strong own-channel outweighs interference
// caused at other receivers. It then repeatedly takes the globally best
// remaining pair, assigns that TX to that RX, and removes the TX from the
// search space. Removing a TX never changes another's scores, so the list
// is each TX at its row's best score, sorted. Power is subsequently
// granted down the list (see assignment.hpp), implementing the paper's
// Insights 1-3 at O(NM + N log N) instead of a nonlinear program.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/model.hpp"

namespace densevlc::alloc {

/// One entry of the ranking: TX `tx` is the `rank`-th transmitter to be
/// granted power, serving RX `rx`.
struct RankedTx {
  std::size_t tx = 0;
  std::size_t rx = 0;
  double sjr = 0.0;  ///< the score at selection time
};

/// Algorithm 1: produces the ranked TX list (length = num_tx), best first.
/// Each TX carries its row's best SJR score; a TX with no channel to any
/// RX (all-zero row) scores 0. Score ties break toward the lower TX
/// index, then lower RX index. A TX whose scores are all NaN (a +inf
/// gain) ranks last with score -1.
std::vector<RankedTx> rank_transmitters(const channel::ChannelMatrix& h,
                                        double kappa);

/// Ranking with a per-TX kappa vector (kappas.size() == num_tx).
std::vector<RankedTx> rank_transmitters_per_tx(
    const channel::ChannelMatrix& h, const std::vector<double>& kappas);

}  // namespace densevlc::alloc
