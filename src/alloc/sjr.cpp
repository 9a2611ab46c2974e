#include "alloc/sjr.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace densevlc::alloc {
namespace {

// SJR matrix with kappa_of(tx) as TX tx's exponent.
template <typename KappaOf>
std::vector<double> score(const channel::ChannelMatrix& h, KappaOf kappa_of) {
  const std::size_t m = h.num_rx();
  std::vector<double> out(h.num_tx() * m, 0.0);
  for (std::size_t i = 0; i < h.num_tx(); ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) row_sum += h.gain(i, j);
    if (row_sum <= 0.0) continue;  // TX reaches no RX: score stays 0
    for (std::size_t j = 0; j < m; ++j) {
      const double gain = h.gain(i, j);
      out[i * m + j] =
          gain > 0.0 ? std::pow(gain, kappa_of(i)) / row_sum : 0.0;
    }
  }
  return out;
}

// Algorithm 1 as one pass over the scores and a sort: taking a TX never
// changes another TX's scores, so the repeated global argmax takes the TXs
// by row maximum, ties to the lower TX. Each row maximum is a strict >
// scan from -1, so it lands on the row's first argmax and a NaN score
// never wins.
template <typename KappaOf>
std::vector<RankedTx> rank(const channel::ChannelMatrix& h,
                           KappaOf kappa_of) {
  const std::size_t m = h.num_rx();
  const auto sjr = score(h, kappa_of);
  std::vector<RankedTx> ranking(h.num_tx());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    ranking[i] = {i, 0, -1.0};
    for (std::size_t j = 0; j < m; ++j) {
      const double s = sjr[i * m + j];
      if (s > ranking[i].sjr) ranking[i] = {i, j, s};
    }
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const RankedTx& a, const RankedTx& b) {
              return a.sjr != b.sjr ? a.sjr > b.sjr : a.tx < b.tx;
            });
  return ranking;
}

}  // namespace

std::vector<RankedTx> rank_transmitters(const channel::ChannelMatrix& h,
                                        double kappa) {
  DVLC_EXPECT(kappa >= 0.0, "SJR exponent kappa must be non-negative");
  return rank(h, [kappa](std::size_t) { return kappa; });
}

std::vector<RankedTx> rank_transmitters_per_tx(
    const channel::ChannelMatrix& h, const std::vector<double>& kappas) {
  DVLC_EXPECT(kappas.size() == h.num_tx(), "one kappa per TX");
  return rank(h, [&kappas](std::size_t i) { return kappas[i]; });
}

}  // namespace densevlc::alloc
