#include "channel/model.hpp"

#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"

namespace densevlc::channel {

ChannelMatrix::ChannelMatrix(std::size_t num_tx, std::size_t num_rx,
                             std::vector<double> gains)
    : num_tx_{num_tx}, num_rx_{num_rx}, gains_{std::move(gains)} {
  if (gains_.size() != num_tx_ * num_rx_) {
    throw std::invalid_argument{"ChannelMatrix: gains size mismatch"};
  }
}

ChannelMatrix ChannelMatrix::from_geometry(
    const std::vector<geom::Pose>& tx_poses,
    const std::vector<geom::Pose>& rx_poses,
    const optics::LambertianEmitter& emitter, const optics::Photodiode& pd) {
  const optics::LosModel los{emitter, pd};
  const std::size_t m = rx_poses.size();
  std::vector<double> gains(tx_poses.size() * m, 0.0);
  for (std::size_t j = 0; j < tx_poses.size(); ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      gains[j * m + k] = los.gain(tx_poses[j], rx_poses[k]);
    }
  }
  return ChannelMatrix{tx_poses.size(), rx_poses.size(), std::move(gains)};
}

void ChannelMatrix::update_columns_from_geometry(
    const std::vector<geom::Pose>& tx_poses,
    const std::vector<geom::Pose>& rx_poses,
    const optics::LambertianEmitter& emitter, const optics::Photodiode& pd,
    std::span<const std::size_t> dirty_rx) {
  DVLC_EXPECT(tx_poses.size() == num_tx_ && rx_poses.size() == num_rx_,
              "update_columns_from_geometry: dimension mismatch");
  const optics::LosModel los{emitter, pd};
  for (std::size_t j = 0; j < num_tx_; ++j) {
    for (std::size_t k : dirty_rx) {
      DVLC_ASSERT(k < num_rx_, "dirty column out of range");
      gains_[j * num_rx_ + k] = los.gain(tx_poses[j], rx_poses[k]);
    }
  }
}

std::size_t ChannelMatrix::best_tx_for(std::size_t rx) const {
  std::size_t best = 0;
  double best_gain = -1.0;
  for (std::size_t tx = 0; tx < num_tx_; ++tx) {
    if (gain(tx, rx) > best_gain) {
      best_gain = gain(tx, rx);
      best = tx;
    }
  }
  return best;
}

LinkBudget LinkBudget::from_led(const optics::LedModel& led,
                                AmperesPerWatt responsivity,
                                AmpsSquaredPerHertz noise_psd,
                                Hertz bandwidth) {
  DVLC_EXPECT(responsivity.value() > 0.0, "responsivity must be positive");
  DVLC_EXPECT(noise_psd.value() >= 0.0, "noise PSD must be >= 0");
  DVLC_EXPECT(bandwidth.value() > 0.0, "bandwidth must be positive");
  LinkBudget b;
  b.responsivity_a_per_w = responsivity.value();
  b.wall_plug_efficiency = led.electrical().wall_plug_efficiency;
  b.dynamic_resistance_ohm = led.dynamic_resistance().value();
  b.noise_psd_a2_per_hz = noise_psd.value();
  b.bandwidth_hz = bandwidth.value();
  return b;
}

Amperes Allocation::tx_total_swing(std::size_t tx) const {
  double total = 0.0;
  for (std::size_t rx = 0; rx < num_rx_; ++rx) total += swing(tx, rx);
  return Amperes{total};
}

std::vector<double> sinr(const ChannelMatrix& h, const Allocation& alloc,
                         const LinkBudget& budget) {
  const std::size_t n = h.num_tx();
  const std::size_t m = h.num_rx();
  const double scale = budget.responsivity_a_per_w *
                       budget.wall_plug_efficiency *
                       budget.dynamic_resistance_ohm;
  const double noise = budget.noise_psd_a2_per_hz * budget.bandwidth_hz;

  // Photocurrent contributions at RX i from the signals intended for
  // RX k: c[i][k] = scale * sum_j H_{j,i} (I^{j,k}/2)^2.
  std::vector<double> contributions(m * m, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      const double half = alloc.swing(j, k) / 2.0;
      if (half <= 0.0) continue;
      const double power = half * half;
      for (std::size_t i = 0; i < m; ++i) {
        contributions[i * m + k] += h.gain(j, i) * power;
      }
    }
  }

  std::vector<double> out(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double signal_current = scale * contributions[i * m + i];
    double interference_current = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      if (k == i) continue;
      interference_current += scale * contributions[i * m + k];
    }
    const double denom =
        noise + interference_current * interference_current;
    out[i] = denom > 0.0 ? signal_current * signal_current / denom : 0.0;
  }
  return out;
}

std::vector<double> throughput_bps(const ChannelMatrix& h,
                                   const Allocation& alloc,
                                   const LinkBudget& budget) {
  auto s = sinr(h, alloc, budget);
  for (double& v : s) {
    v = budget.bandwidth_hz * std::log2(1.0 + v);
  }
  return s;
}

double sum_log_utility(const ChannelMatrix& h, const Allocation& alloc,
                       const LinkBudget& budget) {
  const auto tput = throughput_bps(h, alloc, budget);
  double utility = 0.0;
  for (double t : tput) {
    // Floor at 1 bit/s: log(0) would sink the objective to -inf and erase
    // all gradient information for the other receivers.
    utility += std::log(t > 1.0 ? t : 1.0) + (t > 1.0 ? 0.0 : t - 1.0);
  }
  return utility;
}

Watts tx_comm_power(Amperes total_swing, const LinkBudget& budget) {
  DVLC_EXPECT(total_swing.value() >= 0.0,
              "total drive-current swing must be >= 0");
  const Amperes half = total_swing / 2.0;
  return half * half * budget.dynamic_resistance();
}

Watts total_comm_power(const Allocation& alloc, const LinkBudget& budget) {
  Watts total{0.0};
  for (std::size_t j = 0; j < alloc.num_tx(); ++j) {
    total += tx_comm_power(alloc.tx_total_swing(j), budget);
  }
  return total;
}

}  // namespace densevlc::channel
